package harness

// Regression comparison between two BenchReports. A fresh report fails
// against the committed baseline when any row is missing, when wall
// time per op regresses by more than NsTolerance (default 10%), or
// when allocations per op regress beyond a small absolute epsilon.
// Allocation budgets are the tighter gate: the zero-allocation hot
// path (DESIGN.md §8) is an invariant, not a statistic, so any real
// growth fails even when ns/op still looks fine.

import (
	"fmt"

	"cormi/internal/core"
)

// DiffOpts tunes the regression thresholds.
type DiffOpts struct {
	// NsTolerance is the allowed fractional ns/op growth (0.10 = 10%).
	NsTolerance float64
	// AllocEpsilon is the allowed absolute growth in allocs/op,
	// absorbing amortized one-off setup allocations that land on a
	// different side of an iteration boundary between runs. The
	// effective budget per row is AllocEpsilon plus 1% of the
	// baseline's allocs/op, so zero-allocation rows stay near-strict
	// while allocation-heavy class-mode rows tolerate their own noise.
	AllocEpsilon float64
}

// DefaultDiffOpts matches the thresholds used by `make verify-perf`.
func DefaultDiffOpts() DiffOpts {
	return DiffOpts{NsTolerance: 0.10, AllocEpsilon: 0.5}
}

// allocBudget is the allowed allocs/op for a row with baseline b.
func (o DiffOpts) allocBudget(b float64) float64 {
	return b + o.AllocEpsilon + 0.01*b
}

// CompareBench reports every regression of cur against base, one
// human-readable line each. An empty result means cur passes. Rows
// present only in cur (new workloads) are not regressions; rows
// missing from cur are.
func CompareBench(base, cur *BenchReport, opts DiffOpts) []string {
	var regressions []string
	for i := range base.Rows {
		b := &base.Rows[i]
		c := cur.Row(b.Table, b.Level)
		if c == nil {
			regressions = append(regressions,
				fmt.Sprintf("%s/%s: missing from new report", b.Table, b.Level))
			continue
		}
		if b.NsPerOp > 0 && c.NsPerOp > b.NsPerOp*(1+opts.NsTolerance) {
			regressions = append(regressions, fmt.Sprintf(
				"%s/%s: ns/op %.0f -> %.0f (+%.1f%%, tolerance %.0f%%)",
				b.Table, b.Level, b.NsPerOp, c.NsPerOp,
				100*(c.NsPerOp/b.NsPerOp-1), 100*opts.NsTolerance))
		}
		if budget := opts.allocBudget(b.AllocsPerOp); c.AllocsPerOp > budget {
			regressions = append(regressions, fmt.Sprintf(
				"%s/%s: allocs/op %.2f -> %.2f (budget %.2f)",
				b.Table, b.Level, b.AllocsPerOp, c.AllocsPerOp, budget))
		}
	}
	return regressions
}

// CompareChain gates the chained-dependency section: the pipelined
// chain must stay at or below half the sync chain's virtual latency,
// and the batched mode must keep physical frames per op below one.
// These are protocol properties measured in deterministic virtual
// time, so they are asserted as invariants rather than toleranced
// against the baseline. Either report missing the section (old
// baselines) compares empty.
func CompareChain(base, cur *BenchReport) []string {
	if len(base.Chain) == 0 || len(cur.Chain) == 0 {
		return nil
	}
	byMode := map[string]*ChainRow{}
	for i := range cur.Chain {
		byMode[cur.Chain[i].Mode] = &cur.Chain[i]
	}
	var lines []string
	sync, okS := byMode[string(ChainSync)]
	piped, okP := byMode[string(ChainPipelined)]
	batched, okB := byMode[string(ChainBatched)]
	if !okS || !okP || !okB {
		return []string{"chain: section present but missing sync/pipelined/batched modes"}
	}
	if piped.ChainLatencyNS*2 > sync.ChainLatencyNS {
		lines = append(lines, fmt.Sprintf(
			"chain: pipelined latency %dns exceeds half of sync %dns",
			piped.ChainLatencyNS, sync.ChainLatencyNS))
	}
	if batched.FramesPerOp >= 1 {
		lines = append(lines, fmt.Sprintf(
			"chain: batched frames/op %.3f not below 1", batched.FramesPerOp))
	}
	return lines
}

// CompareAttribution gates the cluster-attribution section. As with
// CompareChain these are structural invariants, not toleranced wall-
// clock comparisons (the scenario's latencies are real sleeps and
// therefore noisy): every site the baseline attributed must still be
// present with calls recorded, monotone quantiles, a dominant blame
// phase, and — when the baseline captured slow-call exemplars — at
// least one exemplar. Either report missing the section (old
// baselines) compares empty.
func CompareAttribution(base, cur *BenchReport) []string {
	if len(base.Attribution) == 0 || len(cur.Attribution) == 0 {
		return nil
	}
	bySite := map[string]*AttribRow{}
	for i := range cur.Attribution {
		bySite[cur.Attribution[i].Site] = &cur.Attribution[i]
	}
	var lines []string
	for i := range base.Attribution {
		b := &base.Attribution[i]
		c, ok := bySite[b.Site]
		if !ok {
			lines = append(lines, fmt.Sprintf("attribution: site %s missing from new report", b.Site))
			continue
		}
		if c.Calls == 0 {
			lines = append(lines, fmt.Sprintf("attribution: %s recorded no calls", c.Site))
		}
		if c.P50NS <= 0 || c.P50NS > c.P95NS || c.P95NS > c.P99NS {
			lines = append(lines, fmt.Sprintf(
				"attribution: %s quantiles not monotone: p50=%d p95=%d p99=%d",
				c.Site, c.P50NS, c.P95NS, c.P99NS))
		}
		if c.TopBlame == "" {
			lines = append(lines, fmt.Sprintf("attribution: %s has no dominant blame phase", c.Site))
		}
		if b.Exemplars > 0 && c.Exemplars == 0 {
			lines = append(lines, fmt.Sprintf(
				"attribution: %s captured no exemplars (baseline had %d)", c.Site, b.Exemplars))
		}
	}
	return lines
}

// CompareTracing gates the distributed-tracing section: cross-node
// reconstruction must stay whole. One trace per chain, exactly one
// root, the span and hop counts the three-node topology implies, no
// orphaned or duplicated spans, and a critical path that accounts for
// at least half of the measured wall time (the harness test asserts
// the tight 10% bound; the bench gate is looser because the bench
// machine may be loaded). Either report missing the section (old
// baselines) compares empty.
func CompareTracing(base, cur *BenchReport) []string {
	if base.Tracing == nil || cur.Tracing == nil {
		return nil
	}
	t := cur.Tracing
	var lines []string
	if t.Traces != t.Chains {
		lines = append(lines, fmt.Sprintf(
			"tracing: sampled %d traces for %d chains", t.Traces, t.Chains))
	}
	if t.Roots != 1 {
		lines = append(lines, fmt.Sprintf(
			"tracing: reconstructed tree has %d roots, want 1", t.Roots))
	}
	if want := 4 * t.Depth; t.SpansPerTrace != want {
		lines = append(lines, fmt.Sprintf(
			"tracing: %d spans per trace, want %d (4 per chain link)", t.SpansPerTrace, want))
	}
	if t.MaxHop != 2 {
		lines = append(lines, fmt.Sprintf(
			"tracing: max hop %d, want 2 (node0 -> node1 -> node2)", t.MaxHop))
	}
	if t.Orphans != 0 || t.Duplicates != 0 {
		lines = append(lines, fmt.Sprintf(
			"tracing: %d orphan and %d duplicate spans, want none", t.Orphans, t.Duplicates))
	}
	if t.CriticalPathNS <= 0 || t.CriticalPathNS > t.EndToEndNS {
		lines = append(lines, fmt.Sprintf(
			"tracing: critical path %dns outside (0, end-to-end %dns]",
			t.CriticalPathNS, t.EndToEndNS))
	}
	if t.CriticalPathRatio < 0.5 || t.CriticalPathRatio > 1.05 {
		lines = append(lines, fmt.Sprintf(
			"tracing: critical path is %.2f of wall time, want within [0.5, 1.05]",
			t.CriticalPathRatio))
	}
	return lines
}

// CompareCost gates the analysis-cost section. The structure and
// precision counters (functions, regions, contexts, nodes, kills,
// iterations) are deterministic functions of the pinned corpus and
// must match the baseline exactly — any drift means the analysis
// result itself changed. Cold wall time gets a deliberately generous
// 10x tolerance: it only exists to catch asymptotic blowups, not
// machine noise. Either report missing the section (old baselines)
// compares empty.
func CompareCost(base, cur *BenchReport) []string {
	if base.Cost == nil || cur.Cost == nil {
		return nil
	}
	b, c := base.Cost, cur.Cost
	var lines []string
	exact := []struct {
		name       string
		base, curv int
	}{
		{"functions", b.Functions, c.Functions},
		{"sccs", b.SCCs, c.SCCs},
		{"components", b.Components, c.Components},
		{"waves", b.Waves, c.Waves},
		{"contexts", b.Contexts, c.Contexts},
		{"nodes", b.Nodes, c.Nodes},
		{"strong_kills", b.StrongKills, c.StrongKills},
		{"iterations", b.Iterations, c.Iterations},
		{"budget_fallbacks", b.BudgetFallbacks, c.BudgetFallbacks},
	}
	for _, e := range exact {
		if e.base != e.curv {
			lines = append(lines, fmt.Sprintf(
				"cost: %s %d -> %d (deterministic counter must match baseline)",
				e.name, e.base, e.curv))
		}
	}
	if b.ColdWallNS > 0 && c.ColdWallNS > 10*b.ColdWallNS {
		lines = append(lines, fmt.Sprintf(
			"cost: cold analysis wall %dns exceeds 10x baseline %dns",
			c.ColdWallNS, b.ColdWallNS))
	}
	return lines
}

// DecisionCounts are the verdict totals of one optimizer decision
// report: live call sites, elided cycle checks (argument and return
// directions both count), and buffer-reuse grants (arguments and
// returns both count). The same counting rule feeds the verdict
// matrix's TOTAL line, so benchdiff deltas and `make verify-precision`
// agree on what a "grant" is.
type DecisionCounts struct {
	Sites  int
	Elided int
	Grants int
}

// CountDecisions tallies one report.
func CountDecisions(rep *core.ExplainReport) DecisionCounts {
	var n DecisionCounts
	for _, d := range rep.Sites {
		if d.Dead {
			continue
		}
		n.Sites++
		if d.CycleCheck.Elided {
			n.Elided++
		}
		if d.RetCycleCheck != nil && d.RetCycleCheck.Elided {
			n.Elided++
		}
		for _, a := range d.Args {
			if a.Reuse.Applied {
				n.Grants++
			}
		}
		if d.Ret != nil && d.Ret.Reuse.Applied {
			n.Grants++
		}
	}
	return n
}

// CompareDecisions diffs the optimizer decision sections of two
// reports and renders one line per workload whose verdict counts
// moved, plus a trailing total when anything did. The deltas are
// informational, not a gate: the authoritative precision gate is the
// verdict-matrix golden diff (`make verify-precision`); here the same
// counts ride alongside the perf numbers so a ns/op shift and the
// analysis-precision shift that caused it appear in one place. Either
// section may be absent (old baselines): then there is nothing to
// compare and the result is empty.
func CompareDecisions(base, cur *BenchReport) []string {
	if len(base.Decisions) == 0 || len(cur.Decisions) == 0 {
		return nil
	}
	curBySource := map[string]*core.ExplainReport{}
	for _, rep := range cur.Decisions {
		curBySource[rep.Source] = rep
	}
	var lines []string
	var db, dc DecisionCounts
	for _, rep := range base.Decisions {
		b := CountDecisions(rep)
		c, ok := curBySource[rep.Source]
		if !ok {
			lines = append(lines, fmt.Sprintf(
				"%s: decisions missing from new report", rep.Source))
			continue
		}
		n := CountDecisions(c)
		db.Sites += b.Sites
		db.Elided += b.Elided
		db.Grants += b.Grants
		dc.Sites += n.Sites
		dc.Elided += n.Elided
		dc.Grants += n.Grants
		if n != b {
			lines = append(lines, fmt.Sprintf(
				"%s: sites %d -> %d, elided cycle checks %d -> %d (%+d), reuse grants %d -> %d (%+d)",
				rep.Source, b.Sites, n.Sites,
				b.Elided, n.Elided, n.Elided-b.Elided,
				b.Grants, n.Grants, n.Grants-b.Grants))
		}
	}
	if len(lines) > 0 {
		lines = append(lines, fmt.Sprintf(
			"total: elided cycle checks %d -> %d (%+d), reuse grants %d -> %d (%+d)",
			db.Elided, dc.Elided, dc.Elided-db.Elided,
			db.Grants, dc.Grants, dc.Grants-db.Grants))
	}
	return lines
}
