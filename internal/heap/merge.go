package heap

import (
	"cormi/internal/ir"
	"cormi/internal/lang"
)

// mergeParts stitches the per-region analyses into the program-wide
// Analysis. Each part carries region-local node IDs (dense from 0)
// and context numbers (MergedCtx plus dense dedicated contexts from
// 1); the merge relocates both by cumulative offsets in region order.
// Because region order (minimum member function index) and each
// part's internal numbering are deterministic, the merged numbering
// is a pure function of the program — independent of worker count
// and scheduling.
//
// No key can collide across parts: points-to keys are per-function
// SSA values, allocation keys are per-instruction, static fields
// couple all their users into one region, and clone contexts embed a
// callee qualified name or a program-unique remote site number, both
// owned by exactly one region.
func mergeParts(prog *ir.Program, opts Options, parts []*Analysis) *Analysis {
	a := &Analysis{
		Prog:            prog,
		Opts:            opts,
		funcs:           prog.Funcs,
		pts:             make(map[valCtx]NodeSet),
		ptsAll:          make(map[*ir.Value]NodeSet),
		globals:         make(map[*lang.FieldDecl]NodeSet),
		allocNode:       make(map[allocKey]NodeID),
		cloneMemo:       make(map[cloneKey]NodeID),
		clonePairs:      make(map[clonePair]NodeID),
		ctxsOf:          map[*ir.Func][]Ctx{},
		ctxOfCall:       map[*ir.Instr]Ctx{},
		recursive:       map[*ir.Func]bool{},
		hasCaller:       map[*ir.Func]bool{},
		BudgetFallbacks: map[string]int{},
		ctxSite:         []*ir.Instr{nil},
	}
	nodeBase, ctxBase := 0, 0
	for _, p := range parts {
		remapCtx := func(c Ctx) Ctx {
			if c == MergedCtx {
				return MergedCtx
			}
			return c + Ctx(ctxBase)
		}
		remapNode := func(id NodeID) NodeID { return id + NodeID(nodeBase) }
		remapSet := func(s NodeSet) NodeSet {
			out := make(NodeSet, len(s))
			for id := range s {
				out[remapNode(id)] = struct{}{}
			}
			return out
		}
		// The parts are private to this merge (freshly solved or
		// freshly decoded), so their nodes are relocated in place.
		for _, n := range p.Nodes {
			n.ID = remapNode(n.ID)
			n.Logical += nodeBase
			if n.CloneOf >= 0 {
				n.CloneOf = remapNode(n.CloneOf)
			}
			n.Ctx = remapCtx(n.Ctx)
			a.Nodes = append(a.Nodes, n)
		}
		for _, m := range p.fields {
			nm := make(map[string]NodeSet, len(m))
			for key, s := range m {
				nm[key] = remapSet(s)
			}
			a.fields = append(a.fields, nm)
		}
		for k, s := range p.pts {
			a.pts[valCtx{k.v, remapCtx(k.c)}] = remapSet(s)
		}
		for v, s := range p.ptsAll {
			a.ptsAll[v] = remapSet(s)
		}
		for fd, s := range p.globals {
			a.globals[fd] = remapSet(s)
		}
		for k, id := range p.allocNode {
			a.allocNode[allocKey{k.in, remapCtx(k.c)}] = remapNode(id)
		}
		for k, id := range p.cloneMemo {
			a.cloneMemo[k] = remapNode(id)
		}
		for k, id := range p.clonePairs {
			a.clonePairs[clonePair{ctx: k.ctx, orig: remapNode(k.orig)}] = remapNode(id)
		}
		a.ctxSite = append(a.ctxSite, p.ctxSite[1:]...)
		for f, cs := range p.ctxsOf {
			out := make([]Ctx, len(cs))
			for i, c := range cs {
				out[i] = remapCtx(c)
			}
			a.ctxsOf[f] = out
		}
		for in, c := range p.ctxOfCall {
			a.ctxOfCall[in] = remapCtx(c)
		}
		for f, r := range p.recursive {
			if r {
				a.recursive[f] = true
			}
		}
		for f, h := range p.hasCaller {
			if h {
				a.hasCaller[f] = true
			}
		}
		for name, n := range p.BudgetFallbacks {
			a.BudgetFallbacks[name] += n
		}
		a.StrongKills += p.StrongKills
		if p.Iterations > a.Iterations {
			a.Iterations = p.Iterations
		}
		nodeBase += len(p.Nodes)
		ctxBase += len(p.ctxSite) - 1
	}
	return a
}
