package harness

// The analysis-at-scale harness: generated MiniJP corpora large
// enough to exercise the parallel per-region scheduler, priced by
// heap.CostStats. analysis_test.go gates the numbers in CI (`make
// verify-analysis`); RunAnalysisCost feeds the `cost` section of the
// rmibench JSON report.

import (
	"fmt"

	"cormi/internal/heap"
	"cormi/internal/heap/gen"
	"cormi/internal/ir"
	"cormi/internal/lang"
)

// CompileCorpus front-ends a generated corpus down to IR.
func CompileCorpus(cfg gen.Config) (*ir.Program, error) {
	c := gen.Generate(cfg)
	f, err := lang.Parse(c.Source)
	if err != nil {
		return nil, fmt.Errorf("harness: corpus parse: %w", err)
	}
	cp, err := lang.Check(f)
	if err != nil {
		return nil, fmt.Errorf("harness: corpus check: %w", err)
	}
	p, err := ir.Lower(cp)
	if err != nil {
		return nil, fmt.Errorf("harness: corpus lower: %w", err)
	}
	return p, nil
}

// AnalyzeCorpus compiles and analyzes a generated corpus under the
// given analysis options.
func AnalyzeCorpus(cfg gen.Config, opts heap.Options) (*heap.Analysis, error) {
	p, err := CompileCorpus(cfg)
	if err != nil {
		return nil, err
	}
	return heap.AnalyzeOpts(p, opts), nil
}

// CostRow is the bench report's analysis-cost section: one pinned
// corpus analyzed once, so a baseline diff catches scalability and
// precision regressions.
type CostRow struct {
	// Corpus identifies the pinned generator config.
	Corpus string `json:"corpus"`

	// Deterministic structure and precision counters (equal on every
	// machine; benchdiff matches them exactly).
	Functions   int `json:"functions"`
	SCCs        int `json:"sccs"`
	Components  int `json:"components"`
	Waves       int `json:"waves"`
	Contexts    int `json:"contexts"`
	Nodes       int `json:"nodes"`
	StrongKills int `json:"strong_kills"`
	Iterations  int `json:"iterations"`
	// BudgetFallbacks must stay 0 on the pinned corpus: its call
	// fan-in is designed under the context budget.
	BudgetFallbacks int `json:"budget_fallbacks"`

	// ColdWallNS is the analysis wall time (environment-dependent;
	// benchdiff allows a generous tolerance).
	ColdWallNS int64 `json:"cold_wall_ns"`
}

// benchCorpus is the pinned config behind the bench cost section:
// large enough that scheduling matters, small enough for `make bench`.
var benchCorpus = gen.Config{Seed: 404, Components: 30, FuncsPerComponent: 10}

// RunAnalysisCost analyzes the pinned corpus and builds the cost
// section row.
func RunAnalysisCost() (*CostRow, error) {
	a, err := AnalyzeCorpus(benchCorpus, heap.DefaultOptions())
	if err != nil {
		return nil, err
	}
	c := a.Cost
	return &CostRow{
		Corpus: fmt.Sprintf("gen(seed=%d,components=%d,funcs=%d)",
			benchCorpus.Seed, benchCorpus.Components, benchCorpus.FuncsPerComponent),
		Functions:       c.Functions,
		SCCs:            c.SCCs,
		Components:      c.Components,
		Waves:           c.Waves,
		Contexts:        c.Contexts,
		Nodes:           c.Nodes,
		StrongKills:     c.StrongKills,
		Iterations:      c.Iterations,
		BudgetFallbacks: c.BudgetFallbacks,
		ColdWallNS:      c.WallNS,
	}, nil
}
