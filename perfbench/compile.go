package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"cormi/internal/core"
	"cormi/internal/harness"
	"cormi/internal/heap/gen"
	"cormi/internal/model"
)

// The compile workload's corpus: the scale `make verify-analysis`
// gates, 100 independent components of 20 helper functions plus the
// two remote methods each (2,200 functions). The seed draws the
// cross-links inside each component; the size never changes.
const (
	corpusComponents = 100
	corpusFuncs      = 20
	// corpusSetupReps is how many times a run sets up; setup_s is the
	// median.
	corpusSetupReps = 5
)

// goldenDir holds the MiniJP programs whose verdicts every compile run
// re-checks against the checked-in golden.
const goldenDir = "examples/minijp"

func corpusConfig(seed int64) gen.Config {
	return gen.Config{Seed: seed, Components: corpusComponents, FuncsPerComponent: corpusFuncs}
}

// corpusExpect is what the gen template implies for every compiled
// corpus, worked out by hand from the template's source (see
// internal/heap/gen), never taken from a compile:
//
//   - each component declares CkSvc.take and CkSvc.get next to its
//     corpusFuncs helpers, all with bodies, and references no other
//     component, so the analysis sees Components*(corpusFuncs+2)
//     functions in exactly Components regions;
//   - no helper has more than three direct callers, far below the
//     context budget of 16, so no call site falls back;
//   - f0 makes the component's only two remote calls. take's argument
//     is a CkNode chain whose nodes all come from the one allocation
//     in the leaf helper, so the cycle table is kept; take only reads
//     the chain, so the argument may be reused; its int result is
//     used. get returns one fresh node whose next is never set (an
//     acyclic reply) and f0 only reads its v, so reply reuse applies.
type corpusExpect struct {
	functions, components int
	take, get             []string // per component: qualified callees
}

func newCorpusExpect() *corpusExpect {
	e := &corpusExpect{functions: corpusComponents * (corpusFuncs + 2), components: corpusComponents}
	for k := 0; k < corpusComponents; k++ {
		e.take = append(e.take, fmt.Sprintf("C%dSvc.take", k))
		e.get = append(e.get, fmt.Sprintf("C%dSvc.get", k))
	}
	return e
}

// check compares one compile result with the expectation.
func (e *corpusExpect) check(res *core.Result) error {
	cost := res.Heap.Cost
	if cost.Functions != e.functions || cost.Components != e.components || cost.BudgetFallbacks != 0 {
		return fmt.Errorf("corpus: %d functions, %d regions, %d fallbacks; want %d, %d, 0",
			cost.Functions, cost.Components, cost.BudgetFallbacks, e.functions, e.components)
	}
	live := make(map[string]*core.SiteInfo, 2*e.components)
	for _, si := range res.Sites {
		if si.Dead || si.Callee == nil {
			return fmt.Errorf("corpus: unexpected dead call site %s", si.Name)
		}
		q := si.Callee.QualifiedName()
		if live[q] != nil {
			return fmt.Errorf("corpus: two call sites of %s", q)
		}
		live[q] = si
	}
	if len(live) != 2*e.components {
		return fmt.Errorf("corpus: %d call sites, want %d", len(live), 2*e.components)
	}
	for k := range e.take {
		t, g := live[e.take[k]], live[e.get[k]]
		switch {
		case t == nil || g == nil:
			return fmt.Errorf("corpus: component %d lacks its take or get call site", k)
		case !t.MayCycle || len(t.ArgReusable) != 1 || !t.ArgReusable[0] || t.NumRet != 1 || t.IgnoreRet:
			return fmt.Errorf("corpus: %s: cycle=%v reuse=%v ret=%d ignored=%v; want cycle kept, argument reused, int result used",
				t.Name, t.MayCycle, t.ArgReusable, t.NumRet, t.IgnoreRet)
		case g.MayCycle || g.RetMayCycle || !g.RetReusable || g.NumRet != 1 || g.IgnoreRet:
			return fmt.Errorf("corpus: %s: cycle=%v/%v reuse=%v ret=%d ignored=%v; want acyclic, reply reused, result used",
				g.Name, g.MayCycle, g.RetMayCycle, g.RetReusable, g.NumRet, g.IgnoreRet)
		}
	}
	return nil
}

// checkGolden compiles the MiniJP corpus and compares its verdict
// matrix with the checked-in golden, counting one operation.
func checkGolden(rep *report) error {
	want, err := os.ReadFile(goldenDir + "/VERDICTS.golden")
	if err != nil {
		return err
	}
	m, err := harness.BuildVerdictMatrix(goldenDir, core.Options{})
	if err != nil {
		return err
	}
	rep.attempted++
	if m.Format() != string(want) {
		rep.fail(goldenDir + ": verdict matrix differs from VERDICTS.golden")
	}
	return nil
}

// compileSetup sets the workload up corpusSetupReps times. Each
// set-up generates the corpus and compiles it once, checked, as the
// warm-up: the timed compiles then start from a grown heap, as every
// compile after the first in a process does, and work moved from the
// compile into its first run shows in setup_s. It returns the corpus
// and the set-up times in seconds.
func compileSetup(seed int64, exp *corpusExpect, rep *report) (string, []float64, error) {
	var src string
	setups := make([]float64, 0, corpusSetupReps)
	for i := 0; i < corpusSetupReps; i++ {
		t0 := time.Now()
		src = gen.Generate(corpusConfig(seed)).Source
		if _, _, _, err := compileLoop(src, 0, 1, exp, rep); err != nil {
			return "", nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	return src, setups, nil
}

// compileLoop compiles src cold with default options, one closed-loop
// client, for d and at least minReps times, checking every result.
// It returns each compile's time in ns and the last result.
func compileLoop(src string, d time.Duration, minReps int, exp *corpusExpect, rep *report) ([]int64, *core.Result, time.Duration, error) {
	var lat []int64
	var last *core.Result
	start := time.Now()
	for i := 0; i < minReps || time.Since(start) < d; i++ {
		t0 := time.Now()
		res, err := core.CompileOpts(src, model.NewRegistry(), core.Options{})
		lat = append(lat, time.Since(t0).Nanoseconds())
		rep.attempted++
		if err != nil {
			return nil, nil, 0, err
		}
		if err := exp.check(res); err != nil {
			rep.fail(err.Error())
		}
		last = res
	}
	return lat, last, time.Since(start), nil
}

func describeCompile(rep *report) {
	rep.notef("workload compile: loop=closed clients=1 transport=none corpus=%d components x %d helpers (%d functions) options=default (context-sensitive, strong updates, workers=GOMAXPROCS, no summary cache)",
		corpusComponents, corpusFuncs, corpusComponents*(corpusFuncs+2))
}

// measureCompile is the compile workload's untraced end-to-end run.
func measureCompile(cfg config) (*report, error) {
	rep := newReport()
	describeCompile(rep)
	exp := newCorpusExpect()
	src, setups, err := compileSetup(cfg.seed, exp, rep)
	if err != nil {
		return nil, err
	}
	if err := checkGolden(rep); err != nil {
		return nil, err
	}
	runtime.GC()
	a0 := readAllocs()
	lat, last, elapsed, err := compileLoop(src, cfg.dur, 10, exp, rep)
	if err != nil {
		return nil, err
	}
	a1 := readAllocs()
	n := float64(len(lat))
	slices.Sort(lat)
	p50, p90 := quantile(lat, 0.50)/1e3, quantile(lat, 0.90)/1e3
	live := liveHeapMB()
	runtime.KeepAlive(last)

	rep.set("op_p50_us", p50, "us")
	rep.set("op_tail_us", p90, "us")
	rep.set("ops_per_s", n/elapsed.Seconds(), "1/s")
	rep.set("allocs_per_op", ratio(float64(a1.mallocs-a0.mallocs), n), "count")
	rep.set("alloc_bytes_per_op", ratio(float64(a1.bytes-a0.bytes), n), "B")
	rep.set("live_heap_mb", live, "MB")
	rep.set("setup_s", median(setups), "s")
	rep.notef("compile_p50_ms=%.3f compile_p90_ms=%.3f (n=%d compiles) compile_funcs_per_s=%.0f ops_failed_ratio=%g",
		p50/1e3, p90/1e3, len(lat), n*float64(last.Heap.Cost.Functions)/elapsed.Seconds(),
		ratio(float64(rep.failed), float64(rep.attempted)))
	rep.notef("setup_s median of %d set-ups (corpus generation and one warm-up compile each): %v", corpusSetupReps, setups)
	return rep, nil
}

// layersCompile is the compile workload's traced per-layer run: an
// untraced segment (GC share, base of the tracing overhead), then the
// compiler layers measured one entry point at a time with spans.
func layersCompile(cfg config) (*report, error) {
	rep := newReport()
	describeCompile(rep)
	exp := newCorpusExpect()
	src, _, err := compileSetup(cfg.seed, exp, rep)
	if err != nil {
		return nil, err
	}
	if err := checkGolden(rep); err != nil {
		return nil, err
	}
	c0 := readCPU()
	lat, _, _, err := compileLoop(src, cfg.dur*3/10, 5, exp, rep)
	if err != nil {
		return nil, err
	}
	rep.set("gc.cpu_share", gcShare(c0, readCPU()), "ratio")
	rec := newRecorder(time.Now())
	tracedNS, err := compilerLayers(src, cfg.dur*7/10, 5, rec, rep)
	if err != nil {
		return nil, err
	}
	rep.set("trace.overhead_share", ratio(tracedNS, mean(lat))-1, "ratio")
	path, err := writeSpans(spanDir, fmt.Sprintf("compile-seed%d.jsonl", cfg.seed), []*recorder{rec})
	if err != nil {
		return nil, err
	}
	rep.notef("spans written to %s", path)
	return rep, nil
}
