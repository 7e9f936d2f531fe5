package main

import (
	"fmt"
	"time"

	"cormi/internal/core"
	"cormi/internal/heap"
	"cormi/internal/ir"
	"cormi/internal/lang"
	"cormi/internal/model"
)

// compilerPhases names the compiler's public entry points in pipeline
// order, as core.CompileOpts calls them.
var compilerPhases = []string{"lang.parse", "lang.check", "ir.lower", "ir.validate", "heap.analyze"}

// runPhases takes src through the compiler's phases one entry point
// at a time with the analysis options core.CompileOpts uses by
// default, recording one span per phase (req identifies the
// iteration), and returns the lowered program and its analysis.
func runPhases(src string, rec *recorder, req int64) (*ir.Program, *heap.Analysis, error) {
	t0 := time.Now()
	file, err := lang.Parse(src)
	t1 := time.Now()
	if err != nil {
		return nil, nil, fmt.Errorf("parse: %w", err)
	}
	prog, err := lang.Check(file)
	t2 := time.Now()
	if err != nil {
		return nil, nil, fmt.Errorf("check: %w", err)
	}
	irp, err := ir.Lower(prog)
	t3 := time.Now()
	if err != nil {
		return nil, nil, fmt.Errorf("lower: %w", err)
	}
	err = ir.Validate(irp)
	t4 := time.Now()
	if err != nil {
		return nil, nil, fmt.Errorf("validate: %w", err)
	}
	an := heap.AnalyzeOpts(irp, heap.DefaultOptions())
	t5 := time.Now()
	parent := rec.add("compiler.phases", t0, t5, -1, req)
	for i, ts := range [][2]time.Time{{t0, t1}, {t1, t2}, {t2, t3}, {t3, t4}, {t4, t5}} {
		rec.add(compilerPhases[i], ts[0], ts[1], parent, req)
	}
	return irp, an, nil
}

// phaseAllocMB measures the bytes each compiler layer allocates on
// src, in MB: lang (parse and check), ir (lower and validate) and heap
// (the analysis).
func phaseAllocMB(src string) (langMB, irMB, heapMB float64, err error) {
	a0 := readAllocs()
	file, err := lang.Parse(src)
	if err != nil {
		return 0, 0, 0, err
	}
	prog, err := lang.Check(file)
	if err != nil {
		return 0, 0, 0, err
	}
	a1 := readAllocs()
	irp, err := ir.Lower(prog)
	if err != nil {
		return 0, 0, 0, err
	}
	if err := ir.Validate(irp); err != nil {
		return 0, 0, 0, err
	}
	a2 := readAllocs()
	heap.AnalyzeOpts(irp, heap.DefaultOptions())
	a3 := readAllocs()
	mb := func(a, b allocMark) float64 { return float64(b.bytes-a.bytes) / 1e6 }
	return mb(a0, a1), mb(a1, a2), mb(a2, a3), nil
}

// compilerLayers measures the compiler's layers on src for about
// budget (and at least minReps iterations of each loop): every phase
// through its own entry point next to a whole core.CompileOpts, each
// layer's allocation, and the analysis again with Workers: 1. It sets
// the lang.*, ir.*, heap.* and core.* per-layer metrics and returns
// the mean CompileOpts time of the traced iterations, in ns.
func compilerLayers(src string, budget time.Duration, minReps int, rec *recorder, rep *report) (float64, error) {
	var irp *ir.Program
	var an *heap.Analysis
	end := time.Now().Add(budget * 6 / 10)
	for i := 0; i < minReps || time.Now().Before(end); i++ {
		t0 := time.Now()
		if _, err := core.CompileOpts(src, model.NewRegistry(), core.Options{}); err != nil {
			return 0, err
		}
		rec.add("core.compile", t0, time.Now(), -1, int64(i))
		var err error
		if irp, an, err = runPhases(src, rec, int64(i)); err != nil {
			return 0, err
		}
	}
	seqOpts := heap.DefaultOptions()
	seqOpts.Workers = 1
	end = time.Now().Add(budget * 4 / 10)
	for i := 0; i < minReps || time.Now().Before(end); i++ {
		t0 := time.Now()
		heap.AnalyzeOpts(irp, seqOpts)
		rec.add("heap.analyze_seq", t0, time.Now(), -1, int64(i))
	}
	langMB, irMB, heapMB, err := phaseAllocMB(src)
	if err != nil {
		return 0, err
	}

	medMS := func(name string) float64 {
		d := durations([]*recorder{rec}, name)
		xs := make([]float64, len(d))
		for i, v := range d {
			xs[i] = float64(v) / 1e6
		}
		return median(xs)
	}
	var phaseSum float64
	for _, p := range compilerPhases {
		ms := medMS(p)
		rep.set(p+"_ms", ms, "ms")
		phaseSum += ms
	}
	compileMS := medMS("core.compile")
	rep.set("core.sites_ms", compileMS-phaseSum, "ms")
	seqMS := medMS("heap.analyze_seq")
	rep.set("heap.analyze_seq_ms", seqMS, "ms")
	rep.set("heap.parallel_speedup", ratio(seqMS, medMS("heap.analyze")), "ratio")
	rep.set("heap.iterations", float64(an.Cost.Iterations), "count")
	rep.set("heap.nodes", float64(an.Cost.Nodes), "count")
	rep.set("heap.contexts", float64(an.Cost.Contexts), "count")
	rep.set("heap.budget_fallbacks", float64(an.Cost.BudgetFallbacks), "count")
	rep.set("lang.alloc_mb", langMB, "MB")
	rep.set("ir.alloc_mb", irMB, "MB")
	rep.set("heap.alloc_mb", heapMB, "MB")
	rep.notef("compiler layers: %d traced compiles, %d sequential analyses; %d functions, %d regions, analysis workers %d",
		len(durations([]*recorder{rec}, "core.compile")), len(durations([]*recorder{rec}, "heap.analyze_seq")),
		an.Cost.Functions, an.Cost.Components, an.Cost.Workers)
	return mean(durations([]*recorder{rec}, "core.compile")), nil
}
