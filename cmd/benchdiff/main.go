// Command benchdiff compares two rmibench perf reports and fails on
// regressions. It is the gate behind `make verify-perf`:
//
//	rmibench -json > /tmp/fresh.json
//	benchdiff BENCH_rmibench.json /tmp/fresh.json
//
// The first argument is the committed baseline, the second the fresh
// measurement. The exit status is nonzero when any workload × level
// row regresses: missing row, ns/op more than -ns-tol above baseline
// (default 10%), or allocs/op above baseline plus -alloc-eps.
//
// When both reports carry a decisions section, the optimizer
// verdict-count deltas (elided cycle checks, reuse grants) are printed
// alongside the perf result. Those deltas are informational; precision
// itself is gated by the verdict-matrix golden (`make
// verify-precision`).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"cormi/internal/harness"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus the process exit, so tests can drive the CLI
// against fixture files. Exit codes: 0 clean, 1 regressions, 2 usage
// or unreadable/malformed input.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	opts := harness.DefaultDiffOpts()
	fs.Float64Var(&opts.NsTolerance, "ns-tol", opts.NsTolerance, "allowed fractional ns/op growth")
	fs.Float64Var(&opts.AllocEpsilon, "alloc-eps", opts.AllocEpsilon, "allowed absolute allocs/op growth")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchdiff [flags] baseline.json fresh.json")
		return 2
	}

	load := func(path string) (*harness.BenchReport, bool) {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(stderr, "benchdiff: %v\n", err)
			return nil, false
		}
		r, err := harness.ParseBenchReport(data)
		if err != nil {
			fmt.Fprintf(stderr, "benchdiff: %s: %v\n", path, err)
			return nil, false
		}
		return r, true
	}
	base, ok := load(fs.Arg(0))
	if !ok {
		return 2
	}
	cur, ok := load(fs.Arg(1))
	if !ok {
		return 2
	}

	// Verdict-count deltas from the decisions sections are printed
	// first and never fail the run: precision is gated by the verdict
	// matrix golden, but a perf shift is easier to read next to the
	// optimizer-decision shift that explains it.
	if deltas := harness.CompareDecisions(base, cur); len(deltas) > 0 {
		fmt.Fprintf(stdout, "benchdiff: optimizer decisions changed vs %s:\n", fs.Arg(0))
		for _, d := range deltas {
			fmt.Fprintf(stdout, "  %s\n", d)
		}
	}

	// The chain section asserts protocol invariants (pipelined latency
	// at most half of sync, batched frames/op below one) in virtual
	// time, so it gates alongside the toleranced perf rows.
	if regs := harness.CompareChain(base, cur); len(regs) > 0 {
		fmt.Fprintf(stderr, "benchdiff: %d chain invariant failure(s) vs %s:\n", len(regs), fs.Arg(0))
		for _, r := range regs {
			fmt.Fprintf(stderr, "  %s\n", r)
		}
		return 1
	}

	// The attribution section asserts structural invariants of the
	// cluster tail-latency view (sites present, monotone quantiles, a
	// dominant blame phase, exemplars still captured).
	if regs := harness.CompareAttribution(base, cur); len(regs) > 0 {
		fmt.Fprintf(stderr, "benchdiff: %d attribution invariant failure(s) vs %s:\n", len(regs), fs.Arg(0))
		for _, r := range regs {
			fmt.Fprintf(stderr, "  %s\n", r)
		}
		return 1
	}

	// The tracing section asserts that cross-node trace reconstruction
	// stays whole (single root, exact span/hop counts, critical path
	// accounting for the measured wall time).
	if regs := harness.CompareTracing(base, cur); len(regs) > 0 {
		fmt.Fprintf(stderr, "benchdiff: %d tracing invariant failure(s) vs %s:\n", len(regs), fs.Arg(0))
		for _, r := range regs {
			fmt.Fprintf(stderr, "  %s\n", r)
		}
		return 1
	}

	// The cost section gates the analysis scheduler: deterministic
	// counters exact-match the baseline, and cold wall time may not
	// blow up asymptotically.
	if regs := harness.CompareCost(base, cur); len(regs) > 0 {
		fmt.Fprintf(stderr, "benchdiff: %d analysis-cost failure(s) vs %s:\n", len(regs), fs.Arg(0))
		for _, r := range regs {
			fmt.Fprintf(stderr, "  %s\n", r)
		}
		return 1
	}

	if regs := harness.CompareBench(base, cur, opts); len(regs) > 0 {
		fmt.Fprintf(stderr, "benchdiff: %d regression(s) vs %s:\n", len(regs), fs.Arg(0))
		for _, r := range regs {
			fmt.Fprintf(stderr, "  %s\n", r)
		}
		return 1
	}
	fmt.Fprintf(stdout, "benchdiff: %d rows OK (ns/op within %.0f%%, allocs/op within +%.2f)\n",
		len(base.Rows), 100*opts.NsTolerance, opts.AllocEpsilon)
	return 0
}
