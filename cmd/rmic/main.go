// Command rmic is the optimizing RMI compiler driver: it parses a
// MiniJP source file, runs the heap analysis and the three
// optimizations, and dumps what the paper's figures show — the heap
// graph (Figure 2), the generated call-site-specific marshalers
// (Figures 6/13), the class-specific baseline serializers (Figure 7)
// and the SSA form.
//
// Usage:
//
//	rmic [flags] file.jp        # or -example to use a built-in sample
//	  -dump-code     generated marshaler pseudocode per call site (default)
//	  -dump-heap     heap graph per call site
//	  -dump-ssa      SSA dump of every function
//	  -dump-class    class-specific (baseline) serializers per class
//	  -sites         one-line analysis summary per call site
//	  -fingerprints  per-class plan fingerprints (the HELLO advertisement)
//	  -explain       per-call-site optimizer decision report (human text)
//	  -explain-json  the same report, machine readable (cormi-explain/1)
//	  -explain-smoke run the explain pipeline over every bundled example
//	                 and validate the reports (the `make explain-smoke` gate)
//	  -verdict-matrix DIR
//	                 compile every *.jp under DIR and print the per-site
//	                 verdict matrix plus the analysis-cost table (the human
//	                 view of the `make verify-precision` golden)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"cormi/internal/apps/lu"
	"cormi/internal/apps/micro"
	"cormi/internal/apps/superopt"
	"cormi/internal/apps/webserver"
	"cormi/internal/core"
	"cormi/internal/harness"
	"cormi/internal/heap"
	"cormi/internal/model"
	"cormi/internal/serial"
)

// exampleSrc is Figure 5 plus the Figure 12 array benchmark, so rmic
// without a file still demonstrates the analyses.
const exampleSrc = `
class Base { }
class Derived1 extends Base { int data; }
class Derived2 extends Base { Derived1 p; }
remote class Work {
	void foo(Base b) { }
	static void go() {
		Work w = new Work();
		Base b1 = new Derived1();
		w.foo(b1);
		Base b2 = new Derived2();
		w.foo(b2);
	}
}
remote class ArrayBench {
	void send(double[][] arr) { }
	static void benchmark() {
		double[][] arr = new double[16][16];
		ArrayBench f = new ArrayBench();
		f.send(arr);
	}
}
`

func main() {
	dumpCode := flag.Bool("dump-code", false, "dump generated marshaler pseudocode")
	dumpHeap := flag.Bool("dump-heap", false, "dump per-site heap graphs")
	dumpSSA := flag.Bool("dump-ssa", false, "dump SSA")
	dumpClass := flag.Bool("dump-class", false, "dump baseline class-specific serializers")
	sites := flag.Bool("sites", false, "summarize call-site verdicts")
	example := flag.Bool("example", false, "compile the built-in Figure 5 example")
	explain := flag.Bool("explain", false, "print per-call-site optimizer decisions with denial witnesses")
	explainJSON := flag.Bool("explain-json", false, "print the decision report as JSON (schema "+core.ExplainSchema+")")
	explainSmoke := flag.Bool("explain-smoke", false, "self-validate the explain reports of every bundled example")
	fingerprints := flag.Bool("fingerprints", false, "print the per-class plan fingerprints the compiled program would advertise in its HELLO")
	verdictMatrix := flag.String("verdict-matrix", "", "compile every *.jp under the directory and print the verdict matrix")
	analysisStats := flag.Bool("analysis-stats", false, "print the analysis cost table (structure, precision effort, wall time)")
	analysisStatsJSON := flag.Bool("analysis-stats-json", false, "print the analysis cost as JSON (schema "+heap.CostSchema+")")
	analysisWorkers := flag.Int("analysis-workers", 0, "analysis worker pool size (0 = GOMAXPROCS)")
	flag.Parse()

	if *explainSmoke {
		if err := smokeExplain(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "rmic: explain smoke: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *verdictMatrix != "" {
		m, err := harness.BuildVerdictMatrix(*verdictMatrix, core.Options{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "rmic: verdict matrix: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(m.Format())
		fmt.Println()
		fmt.Print(m.FormatCost())
		return
	}

	src := exampleSrc
	switch {
	case *example:
	case flag.NArg() == 1:
		b, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "rmic: %v\n", err)
			os.Exit(1)
		}
		src = string(b)
	default:
		fmt.Fprintln(os.Stderr, "rmic: need a source file or -example")
		os.Exit(2)
	}

	label := "example"
	if flag.NArg() == 1 {
		label = flag.Arg(0)
	}

	copts := core.Options{}
	if *analysisWorkers != 0 {
		ho := heap.DefaultOptions()
		ho.Workers = *analysisWorkers
		copts.HeapOpts = &ho
	}
	res, err := core.CompileOpts(src, model.NewRegistry(), copts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rmic: %v\n", err)
		os.Exit(1)
	}
	if n := res.Heap.Cost.BudgetFallbacks; n > 0 {
		fmt.Fprintf(os.Stderr, "rmic: warning: context budget demoted %d call sites to the merged context (%s); precision is degraded — see -analysis-stats\n",
			n, strings.Join(res.Heap.Cost.FallbackFuncs, ", "))
	}

	any := false
	if *sites {
		any = true
		for _, si := range res.Sites {
			if si.Dead {
				continue
			}
			reuse := "-"
			for i, r := range si.ArgReusable {
				if r {
					reuse = fmt.Sprintf("arg%d", i)
					break
				}
			}
			if si.RetReusable {
				reuse += "+ret"
			}
			fmt.Printf("%-24s -> %-24s cycle=%-5v ack=%-5v reuse=%s\n",
				si.Name, si.Callee.QualifiedName(), si.MayCycle, si.IgnoreRet, reuse)
		}
	}
	if *dumpHeap {
		any = true
		for _, si := range res.Sites {
			if si.Dead {
				continue
			}
			fmt.Printf("=== heap graph at %s ===\n%s\n", si.Name, res.DumpHeapForSite(si))
		}
	}
	if *dumpSSA {
		any = true
		fmt.Print(res.SSA())
	}
	if *dumpClass {
		any = true
		names := res.Registry.Names()
		sort.Strings(names)
		for _, n := range names {
			mc, _ := res.Registry.ByName(n)
			fmt.Println(core.ClassSpecificPseudocode(mc))
		}
	}
	if *fingerprints {
		any = true
		fps := serial.RegistryFingerprints(res.Registry)
		names := make([]string, 0, len(fps))
		for n := range fps {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%-24s %016x\n", n, fps[n])
		}
	}
	if *analysisStats || *analysisStatsJSON {
		any = true
		if *analysisStatsJSON {
			b, err := res.Heap.Cost.JSON(label)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rmic: %v\n", err)
				os.Exit(1)
			}
			fmt.Println(string(b))
		} else {
			fmt.Print(res.Heap.Cost.Format())
		}
	}
	if *explain || *explainJSON {
		any = true
		rep := res.Explain(label)
		if *explainJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(rep); err != nil {
				fmt.Fprintf(os.Stderr, "rmic: %v\n", err)
				os.Exit(1)
			}
		} else {
			fmt.Print(rep.Format())
		}
	}
	if *dumpCode || !any {
		fmt.Print(res.DumpAll())
	}
}

// smokeExamples are the bundled programs the explain gate runs over:
// the Figure 5 example plus every Table 1/2 workload source.
var smokeExamples = []struct {
	name string
	src  string
}{
	{"example", exampleSrc},
	{"webserver", webserver.Src},
	{"superopt", superopt.Src},
	{"lu", lu.Src},
	{"micro-linkedlist", micro.LinkedListSrc},
	{"micro-arraybench", micro.ArrayBenchSrc},
}

// smokeReport is the subset of the cormi-explain/1 schema the smoke
// gate validates after a JSON round trip.
type smokeReport struct {
	Schema string `json:"schema"`
	Sites  []struct {
		Site       string          `json:"site"`
		Dead       bool            `json:"dead"`
		CycleCheck smokeCycleCheck `json:"cycle_check"`
		Args       []smokeValue    `json:"args"`
		Ret        *smokeValue     `json:"ret"`
	} `json:"sites"`
}

type smokeCycleCheck struct {
	Elided  bool `json:"elided"`
	Witness *struct {
		Kind       string `json:"kind"`
		RepeatPath string `json:"repeat_path"`
	} `json:"witness"`
}

type smokeValue struct {
	PlanShape string `json:"plan_shape"`
	Reuse     struct {
		Applied    bool   `json:"applied"`
		DeniedRule string `json:"denied_rule"`
	} `json:"reuse"`
}

// smokeExplain compiles every bundled example, emits its explain
// report as JSON, re-parses it, and validates the schema invariants:
// a decision record for every call site, a plan shape and a reuse
// verdict (applied, or denied with a rule) for every value, and a
// heap-analysis witness on every kept cycle check. Across the corpus
// it must see at least one elided cycle check and at least one applied
// reuse decision — the optimizations the audit layer exists to
// explain.
func smokeExplain(w *os.File) error {
	var elided, reuseApplied int
	check := func(v smokeValue, where string) error {
		if v.PlanShape == "" {
			return fmt.Errorf("%s: missing plan_shape", where)
		}
		if v.Reuse.Applied {
			reuseApplied++
		} else if v.Reuse.DeniedRule == "" {
			return fmt.Errorf("%s: reuse neither applied nor denied with a rule", where)
		}
		return nil
	}
	for _, ex := range smokeExamples {
		res, err := core.Compile(ex.src)
		if err != nil {
			return fmt.Errorf("%s: %v", ex.name, err)
		}
		raw, err := json.Marshal(res.Explain(ex.name))
		if err != nil {
			return fmt.Errorf("%s: marshal: %v", ex.name, err)
		}
		var rep smokeReport
		if err := json.Unmarshal(raw, &rep); err != nil {
			return fmt.Errorf("%s: report does not re-parse: %v", ex.name, err)
		}
		if rep.Schema != core.ExplainSchema {
			return fmt.Errorf("%s: schema %q, want %q", ex.name, rep.Schema, core.ExplainSchema)
		}
		if len(rep.Sites) != len(res.Sites) {
			return fmt.Errorf("%s: %d decision records for %d call sites",
				ex.name, len(rep.Sites), len(res.Sites))
		}
		live := 0
		for _, d := range rep.Sites {
			if d.Site == "" {
				return fmt.Errorf("%s: decision record without site id", ex.name)
			}
			if d.Dead {
				continue
			}
			live++
			if d.CycleCheck.Elided {
				elided++
			} else if d.CycleCheck.Witness == nil ||
				d.CycleCheck.Witness.Kind == "" || d.CycleCheck.Witness.RepeatPath == "" {
				return fmt.Errorf("%s %s: kept cycle check carries no witness", ex.name, d.Site)
			}
			for i, a := range d.Args {
				if err := check(a, fmt.Sprintf("%s %s arg %d", ex.name, d.Site, i)); err != nil {
					return err
				}
			}
			if d.Ret != nil {
				if err := check(*d.Ret, fmt.Sprintf("%s %s ret", ex.name, d.Site)); err != nil {
					return err
				}
			}
		}
		fmt.Fprintf(w, "explain %-18s %d sites (%d live): schema + witnesses OK\n",
			ex.name, len(rep.Sites), live)
	}
	if elided == 0 {
		return fmt.Errorf("no elided cycle check anywhere in the corpus")
	}
	if reuseApplied == 0 {
		return fmt.Errorf("no applied reuse decision anywhere in the corpus")
	}
	fmt.Fprintf(w, "explain smoke OK: %d elided cycle checks, %d applied reuse decisions\n",
		elided, reuseApplied)
	return nil
}
