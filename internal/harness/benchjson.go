package harness

// Machine-readable benchmark measurements for the perf-regression
// harness: each paper workload runs a fixed number of iterations per
// optimization level under real wall-clock time and allocator
// accounting (runtime.ReadMemStats), and the results serialize to JSON
// (BENCH_rmibench.json). benchdiff.go compares two such reports and
// flags regressions; `make verify-perf` wires the comparison against
// the committed baseline.

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"cormi/internal/apps/micro"
	"cormi/internal/apps/superopt"
	"cormi/internal/apps/webserver"
	"cormi/internal/core"
	"cormi/internal/rmi"
	"cormi/internal/trace"
)

// BenchRow is one workload × optimization level measurement.
type BenchRow struct {
	Table string `json:"table"` // e.g. "table1_linkedlist"
	Level string `json:"level"` // e.g. "site+reuse+cycle"
	Iters int    `json:"iters"`
	// NsPerOp is real wall-clock nanoseconds per operation (one send,
	// one request, ... — fixed workload setup amortized over Iters).
	NsPerOp float64 `json:"ns_per_op"`
	// BPerOp / AllocsPerOp are heap bytes and allocations per
	// operation over the whole process (runtime.MemStats deltas).
	BPerOp      float64 `json:"b_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// BenchReport is the full measurement set of one run.
type BenchReport struct {
	GoVersion string     `json:"go_version"`
	Rows      []BenchRow `json:"rows"`
	// Phases holds per-(call site, phase) latency quantiles from an
	// extra traced pass (BenchSpec.TracePhases). The untraced perf rows
	// above are measured first, so the committed ns/op baselines never
	// include tracing overhead; omitempty keeps old baselines
	// comparable.
	Phases []trace.PhaseStat `json:"phase_latency,omitempty"`
	// Decisions carries the compile-time optimizer decision report
	// (schema core.ExplainSchema) of each measured workload program:
	// the audit-layer link between the rows above and WHY each level
	// performs as it does. Readers that predate the section — and any
	// reader seeing future sections — must ignore unknown keys, which
	// encoding/json does by default; benchdiff has a test pinning that.
	Decisions []*core.ExplainReport `json:"decisions,omitempty"`
	// Negotiation carries the version-negotiation probe's evidence
	// (plan fallbacks, malformed-frame rejections, per-link state).
	// Like Decisions it is a new optional section: benchdiff compares
	// rows only, so baselines from before the section stay comparable.
	Negotiation *NegotiationReport `json:"negotiation,omitempty"`
	// Chain holds the chained-dependency workload (chain.go): virtual
	// chain latency and physical frames per op for the sync, async,
	// pipelined and batched modes. Optional section: benchdiff gates on
	// it only when both reports carry it.
	Chain []ChainRow `json:"chain,omitempty"`
	// Attribution holds the cluster-wide tail-latency scenario
	// (attrib.go): merged per-site quantiles, the dominant blame phase,
	// and the captured exemplar count from a 3-node obs cluster with a
	// slow executor. Optional section, gated by benchdiff only when
	// both reports carry it.
	Attribution []AttribRow `json:"attribution,omitempty"`
	// Tracing holds the distributed-tracing scenario (dtrace.go): the
	// structural and timing facts of cross-node trace reconstruction
	// over a pipelined three-node chain. Optional section, gated by
	// benchdiff only when both reports carry it.
	Tracing *TracingRow `json:"tracing,omitempty"`
	// Cost holds the analysis-cost measurement over the pinned
	// generated corpus (analysis.go): the scheduler's structure and
	// precision counters behind `make verify-analysis`. Optional section, gated by
	// benchdiff only when both reports carry it.
	Cost *CostRow `json:"cost,omitempty"`
}

// Row finds a measurement by workload and level (nil if absent).
func (r *BenchReport) Row(table, level string) *BenchRow {
	for i := range r.Rows {
		if r.Rows[i].Table == table && r.Rows[i].Level == level {
			return &r.Rows[i]
		}
	}
	return nil
}

// JSON renders the report with stable formatting.
func (r *BenchReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// ParseBenchReport decodes a report produced by JSON.
func ParseBenchReport(data []byte) (*BenchReport, error) {
	var r BenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("harness: bad bench report: %w", err)
	}
	return &r, nil
}

// levelName is the stable (whitespace-free) spelling of a level used
// in report keys.
func levelName(l rmi.OptLevel) string {
	switch l {
	case rmi.LevelClass:
		return "class"
	case rmi.LevelSite:
		return "site"
	case rmi.LevelSiteCycle:
		return "site+cycle"
	case rmi.LevelSiteReuse:
		return "site+reuse"
	default:
		return "site+reuse+cycle"
	}
}

// measure runs f repeats times and keeps the best (minimum) wall time
// and allocator deltas per operation. The minimum, not the mean, is
// what regression tracking wants: scheduler and GC noise only ever
// inflates a run, so the fastest repeat is the closest estimate of the
// code's true cost.
func measure(table, level string, iters, repeats int, f func() error) (BenchRow, error) {
	row := BenchRow{Table: table, Level: level, Iters: iters}
	n := float64(iters)
	for r := 0; r < repeats; r++ {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		err := f()
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			return BenchRow{}, fmt.Errorf("harness: bench %s/%s: %w", table, level, err)
		}
		ns := float64(elapsed.Nanoseconds()) / n
		bPer := float64(after.TotalAlloc-before.TotalAlloc) / n
		allocs := float64(after.Mallocs-before.Mallocs) / n
		if r == 0 || ns < row.NsPerOp {
			row.NsPerOp = ns
		}
		if r == 0 || bPer < row.BPerOp {
			row.BPerOp = bPer
		}
		if r == 0 || allocs < row.AllocsPerOp {
			row.AllocsPerOp = allocs
		}
	}
	return row, nil
}

// BenchSpec sizes the measured workloads.
type BenchSpec struct {
	MicroIters  int // sends per level for Tables 1 and 2
	WebRequests int // page retrievals per level for Table 7
	SuperoptN   int // exhaustive searches per level for Table 5
	Repeats     int // best-of-N repetitions per row
	// TracePhases adds a traced micro pass after the untraced perf
	// rows and folds its per-phase latency quantiles into the report.
	TracePhases bool
	// ChainDepth/ChainCount size the chained-dependency workload
	// (chain.go); ChainDepth <= 0 skips the section.
	ChainDepth int
	ChainCount int
}

// DefaultBenchSpec keeps the full matrix under a few seconds.
func DefaultBenchSpec() BenchSpec {
	return BenchSpec{MicroIters: 2000, WebRequests: 1500, SuperoptN: 3, Repeats: 5, ChainDepth: 8, ChainCount: 100}
}

// RunBench measures the perf-critical workloads at every optimization
// level and returns the machine-readable report.
func RunBench(spec BenchSpec) (*BenchReport, error) {
	report := &BenchReport{GoVersion: runtime.Version()}
	add := func(row BenchRow, err error) error {
		if err != nil {
			return err
		}
		report.Rows = append(report.Rows, row)
		return nil
	}
	repeats := spec.Repeats
	if repeats < 1 {
		repeats = 1
	}
	for _, level := range rmi.AllLevels {
		lv, name := level, levelName(level)
		if err := add(measure("table1_linkedlist", name, spec.MicroIters, repeats, func() error {
			_, err := micro.RunLinkedList(lv, 100, spec.MicroIters)
			return err
		})); err != nil {
			return nil, err
		}
		if err := add(measure("table2_array2d", name, spec.MicroIters, repeats, func() error {
			_, err := micro.RunArray(lv, 16, spec.MicroIters)
			return err
		})); err != nil {
			return nil, err
		}
		if err := add(measure("table5_superopt", name, spec.SuperoptN, repeats, func() error {
			p := superopt.DefaultParams()
			for i := 0; i < spec.SuperoptN; i++ {
				if _, err := superopt.Search(lv, p); err != nil {
					return err
				}
			}
			return nil
		})); err != nil {
			return nil, err
		}
		if err := add(measure("table7_webserver", name, spec.WebRequests, repeats, func() error {
			p := webserver.DefaultParams()
			p.Requests = spec.WebRequests
			_, err := webserver.Run(lv, p)
			return err
		})); err != nil {
			return nil, err
		}
	}
	// The decisions section: compile each measured workload's source
	// and attach its explain report, so the bench JSON carries not
	// just the numbers but the optimizer's reasoning behind them.
	for _, wl := range []struct{ name, src string }{
		{"table1_linkedlist", micro.LinkedListSrc},
		{"table2_array2d", micro.ArrayBenchSrc},
		{"table5_superopt", superopt.Src},
		{"table7_webserver", webserver.Src},
	} {
		res, err := core.Compile(wl.src)
		if err != nil {
			return nil, fmt.Errorf("harness: explain %s: %w", wl.name, err)
		}
		report.Decisions = append(report.Decisions, res.Explain(wl.name))
	}
	if spec.TracePhases {
		tr, err := RunTraced(spec)
		if err != nil {
			return nil, err
		}
		report.Phases = tr.Phases
	}
	neg, err := NegotiationProbe()
	if err != nil {
		return nil, err
	}
	report.Negotiation = neg
	if spec.ChainDepth > 0 {
		chains := spec.ChainCount
		if chains < 1 {
			chains = 100
		}
		rows, err := RunChain(spec.ChainDepth, chains)
		if err != nil {
			return nil, err
		}
		report.Chain = rows
	}
	attrib, err := RunAttrib(DefaultAttribSpec())
	if err != nil {
		return nil, err
	}
	report.Attribution = attrib
	dspec := DefaultDTraceSpec()
	if spec.ChainDepth > 0 {
		dspec.Depth = spec.ChainDepth
	}
	trow, err := RunDTrace(dspec)
	if err != nil {
		return nil, err
	}
	report.Tracing = trow
	cost, err := RunAnalysisCost()
	if err != nil {
		return nil, err
	}
	report.Cost = cost
	return report, nil
}

// TraceReport is the outcome of a traced benchmark pass: the latency
// quantiles per (call site, phase) plus the flight recorder's spans,
// exportable as Chrome-trace JSON with trace.WriteChrome.
type TraceReport struct {
	Phases []trace.PhaseStat
	Spans  []trace.SpanRecord
}

// RunTraced runs the micro workloads once per optimization level with
// a tracer attached — the observability counterpart of RunBench. It is
// deliberately separate from the perf rows: tracing adds clock reads
// per phase, so traced latencies are reported, never compared against
// the untraced ns/op baselines.
func RunTraced(spec BenchSpec) (*TraceReport, error) {
	tr := trace.New(trace.Config{RingSize: 4096})
	for _, level := range rmi.AllLevels {
		if _, err := micro.RunLinkedList(level, 100, spec.MicroIters, rmi.WithTracer(tr)); err != nil {
			return nil, fmt.Errorf("harness: traced linkedlist @ %s: %w", level, err)
		}
		if _, err := micro.RunArray(level, 16, spec.MicroIters, rmi.WithTracer(tr)); err != nil {
			return nil, fmt.Errorf("harness: traced array @ %s: %w", level, err)
		}
	}
	return &TraceReport{Phases: tr.PhaseStats(), Spans: tr.Recent()}, nil
}

// FormatPhases renders phase quantiles as an aligned summary table.
func FormatPhases(phases []trace.PhaseStat) string {
	if len(phases) == 0 {
		return "no traced phases recorded\n"
	}
	var b []byte
	b = fmt.Appendf(b, "%-28s %-18s %9s %10s %10s %10s %10s\n",
		"site", "phase", "count", "mean_ns", "p50_ns", "p95_ns", "p99_ns")
	for _, p := range phases {
		b = fmt.Appendf(b, "%-28s %-18s %9d %10.0f %10.0f %10.0f %10.0f\n",
			p.Site, p.Phase, p.Count, p.MeanNS, p.P50NS, p.P95NS, p.P99NS)
	}
	return string(b)
}
