package harness

import (
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"cormi/internal/core"
	"cormi/internal/heap"
	"cormi/internal/heap/gen"
	"cormi/internal/model"
)

// The `make verify-analysis` gates: the 2k-function corpus must
// analyze inside the wall budget with zero silent precision loss, and
// the result must be bit-identical across worker counts and GOMAXPROCS
// settings.

// gateCorpus is the pinned scalability corpus: 100 independent
// regions x 20 helpers (+2 service methods each) = 2200 bodied
// functions.
var gateCorpus = gen.Config{Seed: 2026, Components: 100, FuncsPerComponent: 20}

// analysisWallBudget caps the analysis driver's own wall time on the
// gate corpus. The corpus solves in ~30ms on an unloaded dev machine;
// the budget leaves two orders of magnitude for slow CI hardware while
// still catching an asymptotic regression (the pre-scheduler engine
// would iterate the whole program to fixpoint instead of per-region).
const analysisWallBudget = 5 * time.Second

func gateOpts(workers int) heap.Options {
	o := heap.DefaultOptions()
	o.Workers = workers
	return o
}

// TestAnalysisCorpusGate: the parallel cold run of the 2k-function
// corpus must finish inside the budget, discover the expected
// structure, and never fall back on the context budget (the corpus
// fan-in is designed under it — a fallback here means the bounded-
// context rule regressed).
func TestAnalysisCorpusGate(t *testing.T) {
	a, err := AnalyzeCorpus(gateCorpus, gateOpts(0)) // Workers 0 = GOMAXPROCS
	if err != nil {
		t.Fatal(err)
	}
	c := a.Cost
	if c.Functions != 2200 {
		t.Errorf("corpus has %d bodied functions, want 2200", c.Functions)
	}
	if c.Components != gateCorpus.Components {
		t.Errorf("scheduler found %d regions, want %d", c.Components, gateCorpus.Components)
	}
	if c.BudgetFallbacks != 0 {
		t.Errorf("%d context-budget fallbacks on the pinned corpus, want 0 (%v)",
			c.BudgetFallbacks, c.FallbackFuncs)
	}
	if wall := time.Duration(c.WallNS); wall > analysisWallBudget {
		t.Errorf("analysis wall time %v exceeds budget %v", wall, analysisWallBudget)
	}
}

// TestAnalysisParallelSpeedup: with real cores available, the parallel
// cold run must be at least 2x faster than the sequential one on the
// gate corpus (best of 3 each). Single-core machines skip: there is no
// parallelism to measure, and the determinism gates below still pin
// that workers>1 cannot change the result.
func TestAnalysisParallelSpeedup(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skipf("need >= 2 CPUs for a speedup measurement, have %d", runtime.NumCPU())
	}
	prog, err := CompileCorpus(gateCorpus)
	if err != nil {
		t.Fatal(err)
	}
	best := func(workers int) time.Duration {
		b := time.Duration(1<<62 - 1)
		for i := 0; i < 3; i++ {
			a := heap.AnalyzeOpts(prog, gateOpts(workers))
			if d := time.Duration(a.Cost.WallNS); d < b {
				b = d
			}
		}
		return b
	}
	seq := best(1)
	par := best(runtime.NumCPU())
	if par*2 > seq {
		t.Errorf("parallel %v not 2x faster than sequential %v (%d CPUs)",
			par, seq, runtime.NumCPU())
	}
}

// TestAnalysisDeterminism: the merged analysis fingerprint, the
// verdict matrix bytes, and the explain JSON bytes must be identical
// at every GOMAXPROCS x workers combination. This is the hard
// requirement the whole scheduler design serves.
func TestAnalysisDeterminism(t *testing.T) {
	// Smaller corpus than the gate: this test runs the analysis many
	// times over.
	cfg := gen.Config{Seed: 31, Components: 12, FuncsPerComponent: 8}

	type variant struct {
		name    string
		maxproc int
		workers int
	}
	variants := []variant{
		{"gomax1/seq", 1, 1},
		{"gomax1/par", 1, 4},
		{"gomax4/par", 4, 4},
		{"gomax4/seq", 4, 1},
		{"gomaxN/par", runtime.NumCPU(), 4},
	}
	var want uint64
	for i, v := range variants {
		prev := runtime.GOMAXPROCS(v.maxproc)
		a, err := AnalyzeCorpus(cfg, gateOpts(v.workers))
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		fp := a.Fingerprint()
		if i == 0 {
			want = fp
		} else if fp != want {
			t.Errorf("%s: fingerprint %016x differs from %s %016x",
				v.name, fp, variants[0].name, want)
		}
	}

	// The end-user artifacts over the real example corpus must also be
	// byte-stable across GOMAXPROCS.
	matrix := func(maxproc int) string {
		prev := runtime.GOMAXPROCS(maxproc)
		defer runtime.GOMAXPROCS(prev)
		m, err := BuildVerdictMatrix(corpusDir, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return m.Format()
	}
	if matrix(1) != matrix(4) {
		t.Error("verdict matrix bytes differ between GOMAXPROCS 1 and 4")
	}

	explain := func(maxproc, workers int) []byte {
		prev := runtime.GOMAXPROCS(maxproc)
		defer runtime.GOMAXPROCS(prev)
		src := gen.Generate(cfg).Source
		ho := gateOpts(workers)
		res, err := core.CompileOpts(src, model.NewRegistry(), core.Options{HeapOpts: &ho})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res.Explain("determinism"))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if string(explain(1, 1)) != string(explain(4, 4)) {
		t.Error("explain JSON bytes differ across GOMAXPROCS/workers")
	}
}
