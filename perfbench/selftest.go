package main

import (
	"fmt"
	"os"
	"strings"
	"time"
)

// The sensitivity self-test proves the benchmark sees a known
// slowdown where it happens and nowhere else. It injects a fixed spin
// into every transport Send (spinNetwork) and compares each injected
// run with a clean run of the same seed made just before it. The spin
// is op_p50_us's bound times the clean replies-tcp call p50, so each
// call (two Sends) carries twice the bound in injected delay: a spin
// of 15% per Send moved the p50 by only 22% and 30% in two runs,
// straddling the 25% bound, because spinning also keeps the CPUs from
// idling and so shortens the wake-ups the clean run waits for.
//
//   - on replies-tcp, op_p50_us and transport.rtt_us must get worse by
//     more than op_p50_us's bound;
//   - on replies-tcp, every serial.* metric (no Send runs inside the
//     serial layer) must stay within that bound;
//   - on compile, which sends nothing, no end-to-end metric may get
//     worse by more than its own bound.
//
// Per-layer metrics have no bound of their own, so the layer checks
// use the bound of the end-to-end metric they feed, op_p50_us. Run it
// from the root of a checkout:
//
//	bash perfbench/run.sh --selftest --seconds 5

// selftestSeeds are the seeds each variant runs; the comparison uses
// the median over them.
var selftestSeeds = []int64{11, 12, 13, 14, 15}

func runSelftest(cfg config, bf *benchFile) int {
	var layerBound float64
	for _, m := range bf.EndToEnd {
		if m.Name == "op_p50_us" {
			layerBound = m.Bound
		}
	}

	// run runs fn clean and with the spin on every seed, one right
	// after the other so that a drift in host speed hits both alike,
	// and returns every metric's values per seed for both variants.
	type pair struct{ clean, spun map[string][]float64 }
	run := func(fn func(config) (*report, error), spin time.Duration) (pair, error) {
		p := pair{map[string][]float64{}, map[string][]float64{}}
		for _, seed := range selftestSeeds {
			for _, v := range []struct {
				spin time.Duration
				into map[string][]float64
			}{{0, p.clean}, {spin, p.spun}} {
				c := cfg
				c.seed, c.spin = seed, v.spin
				rep, err := fn(c)
				if err != nil {
					return pair{}, err
				}
				if rep.failed > 0 {
					return pair{}, fmt.Errorf("%d failed operations: %s", rep.failed, rep.firstErr)
				}
				for k, m := range rep.metrics {
					v.into[k] = append(v.into[k], m.Value)
				}
			}
		}
		return p, nil
	}

	probe, err := repliesTCP.measure(config{seed: selftestSeeds[0], dur: cfg.dur})
	if err != nil {
		fmt.Fprintln(os.Stderr, "selftest:", err)
		return 1
	}
	spin := time.Duration(layerBound * probe.metrics["op_p50_us"].Value * 1e3)
	fmt.Printf("selftest: spin %v per Send (%.0f%% of a %.1f us replies-tcp call p50), seeds %v, %v per run\n",
		spin, layerBound*100, probe.metrics["op_p50_us"].Value, selftestSeeds, cfg.dur)

	e2e, err1 := run(repliesTCP.measure, spin)
	layers, err2 := run(repliesTCP.layers, spin)
	comp, err3 := run(measureCompile, spin)
	for _, err := range []error{err1, err2, err3} {
		if err != nil {
			fmt.Fprintln(os.Stderr, "selftest:", err)
			return 1
		}
	}

	ok := true
	// check prints one comparison; wantMoved says whether the metric
	// must get worse by more than bound (true) or stay within it.
	check := func(workload string, m benchMetric, p pair, bound float64, wantMoved bool) {
		cs, ss := p.clean[m.Name], p.spun[m.Name]
		changes := make([]float64, len(cs))
		for i := range cs {
			changes[i] = ratio(ss[i]-cs[i], cs[i])
		}
		// The change is the median over seeds of each adjacent pair's
		// change.
		c, s, change := median(cs), median(ss), median(changes)
		worse := change
		if m.Better == "higher" {
			worse = -change
		}
		moved := worse > bound
		verdict := "ok"
		if moved != wantMoved {
			verdict, ok = "FAIL", false
		}
		want := "stays within"
		if wantMoved {
			want = "moves beyond"
		}
		fmt.Printf("%-4s %-11s %-30s clean %-12.5g injected %-12.5g change %+7.1f%%  %s bound %.0f%%\n",
			verdict, workload, m.Name, c, s, change*100, want, bound*100)
	}
	check("replies-tcp", benchMetric{Name: "op_p50_us", Better: "lower"}, e2e, layerBound, true)
	for _, m := range bf.PerLayer {
		switch {
		case m.Name == "transport.rtt_us":
			check("replies-tcp", m, layers, layerBound, true)
		case strings.HasPrefix(m.Name, "serial."):
			check("replies-tcp", m, layers, layerBound, false)
		}
	}
	for _, m := range bf.EndToEnd {
		check("compile", m, comp, m.Bound, false)
	}
	if !ok {
		fmt.Println("selftest: FAIL")
		return 1
	}
	fmt.Println("selftest: PASS")
	return 0
}
