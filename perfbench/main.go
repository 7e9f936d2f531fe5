// Command perfbench is cormi's benchmark. It drives the compiler and
// the RMI runtime from one process through their public entry points,
// checks every operation's result against a reference, and prints the
// metrics declared in the checkout's BENCHMARK.json. From the root of
// a checkout:
//
//	bash perfbench/run.sh --workload graph-args --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it measures the end-to-end metrics on an untraced
// run; with --trace 1 it runs the workload again with spans and the
// runtime tracer attached and prints the per-layer metrics. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Lines before it are a human-readable report: host facts, the
// workload record, the verdicts its sketch compiled to, and every
// metric with its sample count. --selftest runs the sensitivity check
// of selftest.go instead of a workload. WORKLOADS.md describes the
// workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's outcome: the operations attempted and failed,
// the metrics, and the text lines printed before the JSON result.
type report struct {
	attempted, failed int64
	metrics           map[string]metric
	notes             []string
	firstErr          string
}

func newReport() *report { return &report{metrics: make(map[string]metric)} }

func (r *report) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail counts one wrong or failed operation, keeping the first reason.
func (r *report) fail(reason string) {
	r.failed++
	if r.firstErr == "" {
		r.firstErr = reason
	}
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	dur      time.Duration
	traced   bool
	// spin, when nonzero, is added to every transport Send (the
	// sensitivity self-test's injected delay; see spin.go).
	spin time.Duration
}

// spanDir receives the traced runs' span dumps, inside the checkout.
const spanDir = ".bench_build/spans"

// benchMetric is one metric declared in BENCHMARK.json.
type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchFile is the part of BENCHMARK.json the benchmark reads: the
// metrics a run must print.
type benchFile struct {
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

func readBenchFile() (*benchFile, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// conform makes rep print exactly the declared metrics. A declared
// per-layer metric the workload does not measure (the runtime layers
// on compile) reads 0; any other mismatch is a bug in the benchmark.
func (r *report) conform(declared []benchMetric, zeroFill bool) error {
	names := make(map[string]bool, len(declared))
	for _, m := range declared {
		names[m.Name] = true
		got, ok := r.metrics[m.Name]
		switch {
		case !ok && zeroFill:
			r.set(m.Name, 0, m.Unit)
		case !ok:
			return fmt.Errorf("metric %s not measured", m.Name)
		case got.Unit != m.Unit:
			return fmt.Errorf("metric %s measured in %s, declared in %s", m.Name, got.Unit, m.Unit)
		}
	}
	for name := range r.metrics {
		if !names[name] {
			return fmt.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
	return nil
}

// workloads maps a workload name to its end-to-end and per-layer runs.
var workloads = map[string]struct {
	measure, layers func(config) (*report, error)
}{
	"graph-args":  {graphArgs.measure, graphArgs.layers},
	"replies-tcp": {repliesTCP.measure, repliesTCP.layers},
	"compile":     {measureCompile, layersCompile},
}

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	var seconds, traceFlag int
	var selftest bool
	flag.StringVar(&cfg.workload, "workload", "", "workload: graph-args, replies-tcp or compile")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, traced")
	flag.BoolVar(&selftest, "selftest", false, "run the sensitivity self-test instead of a workload")
	flag.Parse()
	if seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	cfg.dur = time.Duration(seconds) * time.Second
	cfg.traced = traceFlag == 1
	bf, err := readBenchFile()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run from the root of a cormi checkout:", err)
		return 2
	}
	if selftest {
		return runSelftest(cfg, bf)
	}
	w, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d\n", cfg.workload, cfg.seed, seconds, traceFlag)
	fmt.Printf("host nproc=%d gomaxprocs=%d go=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	measure := w.measure
	if cfg.traced {
		measure = w.layers
	}
	rep, err := measure(cfg)
	if err == nil {
		if cfg.traced {
			err = rep.conform(bf.PerLayer, true)
		} else {
			err = rep.conform(bf.EndToEnd, false)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printReport(rep)
	if rep.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed; first: %s\n", rep.failed, rep.attempted, rep.firstErr)
		return 1
	}
	return 0
}

// printReport prints the notes, every metric on its own line, and the
// JSON result as the last line.
func printReport(rep *report) {
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.metrics[n]
		fmt.Printf("metric %-34s %.6g %s\n", n, m.Value, m.Unit)
	}
	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, rep.metrics})
	fmt.Println(string(out))
}
