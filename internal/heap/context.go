package heap

import (
	"cormi/internal/ir"
)

// buildContexts is the static context prepass of the 1-call-site-
// sensitive analysis. It decides, once and deterministically, which
// analysis context every call instruction binds its callee in:
//
//   - each direct call of a function with a body gets a dedicated
//     context (a fresh clone of the callee's points-to summary), so
//     the callee's facts are not merged across unrelated callers;
//   - calls to recursive functions (any function on a direct-call
//     cycle) bind the merged context MergedCtx — context cloning
//     cannot separate the unboundedly many activations anyway;
//   - calls to functions with more direct call sites than
//     Options.ContextBudget bind MergedCtx too, bounding the number of
//     contexts (and hence analysis cost) linearly in the budget. Each
//     such demotion is COUNTED in BudgetFallbacks: budget exhaustion
//     is a precision cliff and must be observable, not silent;
//   - remote calls always bind MergedCtx: the RMI boundary already
//     separates call sites through per-site clone contexts (ArgCtx /
//     RetCtx), so a second separation would only duplicate nodes.
//
// The prepass runs over a.funcs — one analysis region while solving —
// and contexts are numbered in the region's deterministic function
// order, which makes node IDs and therefore every downstream witness
// byte-stable across runs and worker counts. Recursion
// flags come from the scheduler's whole-program plan (a.recursive is
// filled before this runs): a region sees every direct-call cycle it
// participates in, and cycles never span regions, so the per-region
// view equals the whole-program view.
//
// A function's merged context is only analyzed when something can
// actually bind into it: the function has no in-program callers (an
// entry point such as main), it is invoked remotely, or some direct
// call falls back to MergedCtx. Skipping dead merged contexts is not
// just a cost saving — it prevents phantom parameter-less summaries
// from leaking spurious nodes into the merged PointsTo view.
func (a *Analysis) buildContexts() {
	prog := a.Prog
	a.ctxsOf = map[*ir.Func][]Ctx{}
	a.ctxOfCall = map[*ir.Instr]Ctx{}
	a.hasCaller = map[*ir.Func]bool{}
	a.BudgetFallbacks = map[string]int{}
	a.ctxSite = []*ir.Instr{nil} // MergedCtx has no call site
	if a.recursive == nil {
		a.recursive = map[*ir.Func]bool{}
	}

	directSites := map[*ir.Func]int{}
	remoteTarget := map[*ir.Func]bool{}
	for _, f := range a.funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op != ir.OpCall && in.Op != ir.OpRemoteCall {
					continue
				}
				callee, ok := prog.FuncOf[in.Callee]
				if !ok {
					continue // bodiless method: no summary to specialize
				}
				a.hasCaller[callee] = true
				if in.Op == ir.OpRemoteCall {
					remoteTarget[callee] = true
					continue
				}
				directSites[callee]++
			}
		}
	}

	budget := a.Opts.budget()
	mergedBound := map[*ir.Func]bool{}
	dedicated := map[*ir.Func][]Ctx{}
	for _, f := range a.funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op != ir.OpCall {
					continue
				}
				callee, ok := prog.FuncOf[in.Callee]
				if !ok {
					continue
				}
				if !a.Opts.ContextSensitive || a.recursive[callee] || directSites[callee] > budget {
					a.ctxOfCall[in] = MergedCtx
					mergedBound[callee] = true
					if a.Opts.ContextSensitive && !a.recursive[callee] && directSites[callee] > budget {
						a.BudgetFallbacks[in.Callee.QualifiedName()]++
					}
					continue
				}
				c := Ctx(len(a.ctxSite))
				a.ctxSite = append(a.ctxSite, in)
				a.ctxOfCall[in] = c
				dedicated[callee] = append(dedicated[callee], c)
			}
		}
	}

	for _, f := range a.funcs {
		var ctxs []Ctx
		if !a.hasCaller[f] || remoteTarget[f] || mergedBound[f] {
			ctxs = append(ctxs, MergedCtx)
		}
		ctxs = append(ctxs, dedicated[f]...)
		a.ctxsOf[f] = ctxs
	}
}
