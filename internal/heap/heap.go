// Package heap implements the paper's RMI-aware heap analysis (§2):
// an allocation-site-based, inclusion-style points-to analysis over SSA
// form, extended to model RMI's deep-copy parameter semantics.
//
// Every allocation site becomes a heap node; data flow propagates node
// sets through assignments, phis, field stores/loads and calls until a
// fixpoint. At remote call boundaries the reachable argument subgraph
// is cloned — each node's *logical* allocation number is fresh while
// its *physical* allocation number is inherited from the original.
// Cloning is memoized per (context, physical) pair, which is exactly
// the paper's termination fix for the data-flow loop of Figure 3/4:
// once a physical number has been propagated into a remote function, no
// further clone is created, so the node sets stop growing.
//
// Two precision refinements sit on top of the base analysis (both on by
// default, both switchable through Options — the verdict-matrix
// baseline compiles with them off):
//
//  1. 1-call-site sensitivity: every direct call site of a function
//     with a body gets its own clone of the callee's points-to summary
//     (its own Ctx), so one pessimistic caller no longer poisons the
//     verdicts of every other caller of a shared helper. Recursive
//     functions (any call-graph SCC) and callees whose dedicated
//     context count would exceed Options.ContextBudget fall back to
//     the merged summary context 0 — the bounded-context rule that
//     keeps the analysis linear in the number of call sites.
//
//  2. Flow-sensitive strong updates: a store through an SSA value
//     whose points-to set is a singleton non-summary allocation node
//     is *killed* when a later store in the same basic block
//     overwrites the same field of the same base value with no
//     potentially-observing instruction (load or call) in between.
//     The analysis runs twice: the first pass computes the kill set
//     from its final (over-approximate) points-to sets, the second
//     re-runs the fixpoint with killed stores skipped. Because the
//     second pass only removes constraints, its sets shrink, so every
//     kill stays justified.
package heap

import (
	"fmt"
	"runtime"
	"sort"
	"strings"

	"cormi/internal/ir"
	"cormi/internal/lang"
)

// NodeID identifies a heap node. The NodeID doubles as the logical
// allocation number.
type NodeID int

// Ctx identifies one analysis context of a function. Context 0 is the
// merged (context-insensitive) summary every function has; contexts
// > 0 are per-direct-call-site clones of one callee's summary.
type Ctx int

// MergedCtx is the shared fallback context: entry functions, remote
// invocations, recursive callees and budget overflow all bind here.
const MergedCtx Ctx = 0

// DefaultContextBudget bounds the dedicated contexts per callee: a
// function with more direct call sites than this sees the overflow
// sites through its merged summary instead.
const DefaultContextBudget = 16

// Options selects the analysis precision/cost trade-offs, plus the
// worker count of the parallel driver. Only the precision fields may
// influence analysis RESULTS; Workers is a pure accelerator, and the
// determinism gate (`make verify-precision`) pins that it changes
// nothing observable.
type Options struct {
	// ContextSensitive enables 1-call-site-sensitive interprocedural
	// analysis (per-call-site callee summaries).
	ContextSensitive bool
	// StrongUpdates enables the flow-sensitive same-block store-kill
	// refinement.
	StrongUpdates bool
	// ContextBudget caps dedicated contexts per callee (0 means
	// DefaultContextBudget).
	ContextBudget int
	// Workers bounds the worker pool solving independent analysis
	// regions concurrently (0 means GOMAXPROCS, 1 forces sequential).
	Workers int
}

// DefaultOptions is the production configuration: both refinements on.
func DefaultOptions() Options {
	return Options{ContextSensitive: true, StrongUpdates: true, ContextBudget: DefaultContextBudget}
}

// InsensitiveOptions is the context-insensitive, weak-update baseline
// the precision gate compares against.
func InsensitiveOptions() Options { return Options{} }

func (o Options) budget() int {
	if o.ContextBudget <= 0 {
		return DefaultContextBudget
	}
	return o.ContextBudget
}

// workers resolves the effective worker-pool size.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// ElemKey is the pseudo-field naming array element edges (the "[]"
// edges of Figure 2).
const ElemKey = "[]"

// Node is one heap-graph node: an allocation site (in one analysis
// context) or a clone of one.
type Node struct {
	ID       NodeID
	Logical  int
	Physical int
	Type     lang.Type
	// Site is the allocation instruction this node (or its clone
	// origin) came from.
	Site *ir.Instr
	// Ctx is the analysis context the node was allocated in (MergedCtx
	// for context-insensitive nodes and clones).
	Ctx Ctx
	// Summary marks nodes that may stand for objects from several
	// merged call paths: merged-context nodes of functions that have
	// direct callers, and all remote-boundary clones (memoized per
	// physical number). Strong updates never fire on summary nodes.
	Summary bool
	// CloneOf is the node this one was cloned from (-1 for originals)
	// and CloneCtx the remote-boundary context that caused the clone.
	CloneOf  NodeID
	CloneCtx string
}

// IsClone reports whether the node is an RMI-boundary clone.
func (n *Node) IsClone() bool { return n.CloneOf >= 0 }

func (n *Node) String() string {
	c := ""
	if n.IsClone() {
		c = fmt.Sprintf(" clone-of=%d ctx=%s", n.CloneOf, n.CloneCtx)
	} else if n.Ctx != MergedCtx {
		c = fmt.Sprintf(" callctx=%d", n.Ctx)
	}
	return fmt.Sprintf("node%d(log=%d, phys=%d, %s%s)", n.ID, n.Logical, n.Physical, n.Type, c)
}

// NodeSet is a set of heap nodes.
type NodeSet map[NodeID]struct{}

// Add inserts id, reporting whether the set changed.
func (s NodeSet) Add(id NodeID) bool {
	if _, ok := s[id]; ok {
		return false
	}
	s[id] = struct{}{}
	return true
}

// AddAll unions t into s, reporting whether s changed.
func (s NodeSet) AddAll(t NodeSet) bool {
	changed := false
	for id := range t {
		if s.Add(id) {
			changed = true
		}
	}
	return changed
}

// Has reports membership.
func (s NodeSet) Has(id NodeID) bool {
	_, ok := s[id]
	return ok
}

// Sorted returns the ids in ascending order.
func (s NodeSet) Sorted() []NodeID {
	ids := make([]NodeID, 0, len(s))
	for id := range s {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func (s NodeSet) String() string {
	parts := make([]string, 0, len(s))
	for _, id := range s.Sorted() {
		parts = append(parts, fmt.Sprintf("%d", id))
	}
	return "{" + strings.Join(parts, ",") + "}"
}

type cloneKey struct {
	ctx      string
	physical int
}

type clonePair struct {
	ctx  string
	orig NodeID
}

// valCtx keys a value's points-to set in one analysis context.
type valCtx struct {
	v *ir.Value
	c Ctx
}

// allocKey keys an allocation instruction's node in one context.
type allocKey struct {
	in *ir.Instr
	c  Ctx
}

// instrCtx names one instruction under one analysis context (the key
// of the strong-update kill set).
type instrCtx struct {
	in *ir.Instr
	c  Ctx
}

// Analysis is the computed heap graph. During solving each analysis
// region (sched.Component) is one private Analysis with local node and
// context numbering; mergeParts stitches the parts into the single
// program-wide Analysis callers see, with numbering that depends only
// on the deterministic region order — never on scheduling.
type Analysis struct {
	Prog *ir.Program
	Opts Options

	// funcs is the function subset this Analysis covers, in fixpoint
	// iteration order (one region's bottom-up wave order while
	// solving; prog.Funcs after the merge).
	funcs []*ir.Func

	Nodes []*Node

	pts       map[valCtx]NodeSet
	ptsAll    map[*ir.Value]NodeSet // union over contexts, kept in sync
	fields    []map[string]NodeSet  // by NodeID
	globals   map[*lang.FieldDecl]NodeSet
	allocNode map[allocKey]NodeID

	cloneMemo  map[cloneKey]NodeID
	clonePairs map[clonePair]NodeID

	// Context machinery (filled by the static prepass).
	ctxsOf    map[*ir.Func][]Ctx // live contexts, MergedCtx (if live) first
	ctxOfCall map[*ir.Instr]Ctx  // direct call instr -> callee context
	ctxSite   []*ir.Instr        // by Ctx (nil for MergedCtx)
	recursive map[*ir.Func]bool
	hasCaller map[*ir.Func]bool

	// killed stores (strong updates), decided by the first pass.
	killed map[instrCtx]bool
	// StrongKills counts the stores the final pass skipped because a
	// later same-block store strongly updates the same field.
	StrongKills int

	changed bool
	// Iterations records how many fixpoint passes were needed (a
	// termination witness for the Figure 3/4 scenario). After the
	// merge it is the maximum over regions — the critical-path pass
	// count, which is what a parallel run actually waits for.
	Iterations int

	// BudgetFallbacks counts, per callee qualified name, the direct
	// call sites demoted to MergedCtx because the callee's dedicated-
	// context count exceeded Options.ContextBudget (satellite fix of
	// ISSUE 10: budget exhaustion used to be silent). Recursion and
	// ContextSensitive=false demotions are NOT counted — those are
	// semantic, not budget pressure.
	BudgetFallbacks map[string]int

	// Cost is the driver's cost model for the whole run (CostStats is
	// exported through `rmic -analysis-stats` and gated in CI).
	Cost CostStats
}

// Stats summarizes the analysis cost for the verdict matrix.
type Stats struct {
	Nodes        int // heap nodes (originals, context clones, RMI clones)
	Contexts     int // total analysis contexts (incl. the merged one)
	PeakPointsTo int // largest per-context value points-to set
	StrongKills  int // stores removed by strong updates
	Iterations   int // fixpoint passes of the final run
}

// AnalysisStats reports the cost metrics of the finished analysis.
func (a *Analysis) AnalysisStats() Stats {
	st := Stats{
		Nodes:       len(a.Nodes),
		Contexts:    len(a.ctxSite),
		StrongKills: a.StrongKills,
		Iterations:  a.Iterations,
	}
	for _, s := range a.pts {
		if len(s) > st.PeakPointsTo {
			st.PeakPointsTo = len(s)
		}
	}
	return st
}

// Contexts returns the analysis contexts of a function, MergedCtx
// first, in deterministic order.
func (a *Analysis) Contexts(f *ir.Func) []Ctx { return a.ctxsOf[f] }

// CtxCallSite returns the direct call instruction a dedicated context
// stands for (nil for MergedCtx).
func (a *Analysis) CtxCallSite(c Ctx) *ir.Instr {
	if int(c) >= len(a.ctxSite) {
		return nil
	}
	return a.ctxSite[c]
}

// PointsTo returns the node set an SSA value may refer to across all
// of its function's contexts (nil-safe) — the sound merged view.
func (a *Analysis) PointsTo(v *ir.Value) NodeSet {
	if v == nil {
		return nil
	}
	return a.ptsAll[v]
}

// PointsToIn returns the points-to set of v in one specific context
// (nil-safe; nil when the context never bound v).
func (a *Analysis) PointsToIn(v *ir.Value, c Ctx) NodeSet {
	if v == nil {
		return nil
	}
	return a.pts[valCtx{v, c}]
}

// NodeOfAlloc returns the heap node of an allocation instruction in
// the given context, if the context ever executed it.
func (a *Analysis) NodeOfAlloc(in *ir.Instr, c Ctx) (NodeID, bool) {
	id, ok := a.allocNode[allocKey{in, c}]
	return id, ok
}

// Field returns the points-to set of node.field.
func (a *Analysis) Field(n NodeID, key string) NodeSet {
	return a.fields[n][key]
}

// FieldEdges returns all outgoing field edges of a node, keyed by
// field name. The returned map is the analysis's own storage; treat it
// as read-only.
func (a *Analysis) FieldEdges(n NodeID) map[string]NodeSet {
	return a.fields[n]
}

// FieldKey names a declared field edge.
func FieldKey(fd *lang.FieldDecl) string {
	return fd.Owner.Name + "." + fd.Name
}

// Node returns the node by id.
func (a *Analysis) Node(id NodeID) *Node { return a.Nodes[id] }

// GlobalSeeds returns the union of all static-variable points-to sets:
// everything directly reachable from a global (the escape-analysis
// seed set).
func (a *Analysis) GlobalSeeds() NodeSet {
	out := NodeSet{}
	for _, s := range a.globals {
		out.AddAll(s)
	}
	return out
}

// Global returns the points-to set of one static field.
func (a *Analysis) Global(fd *lang.FieldDecl) NodeSet { return a.globals[fd] }

// Reach returns roots plus everything transitively reachable through
// field edges.
func (a *Analysis) Reach(roots NodeSet) NodeSet {
	out := NodeSet{}
	var stack []NodeID
	for id := range roots {
		if out.Add(id) {
			stack = append(stack, id)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, set := range a.fields[n] {
			for m := range set {
				if out.Add(m) {
					stack = append(stack, m)
				}
			}
		}
	}
	return out
}

// CloneSetOf maps a caller-side node set to its clones under ctx,
// returning only nodes that were actually cloned (memo hits).
func (a *Analysis) CloneSetOf(ctx string, orig NodeSet) NodeSet {
	out := NodeSet{}
	for id := range orig {
		if c, ok := a.clonePairs[clonePair{ctx: ctx, orig: id}]; ok {
			out.Add(c)
		}
	}
	return out
}

// ArgCtx is the cloning context for arguments of a remote function
// ("checked if the physical allocation number has already been
// propagated to that remote function").
func ArgCtx(callee *lang.MethodDecl) string { return "arg:" + callee.QualifiedName() }

// RetCtx is the cloning context for return values, per call site.
func RetCtx(siteID int) string { return fmt.Sprintf("ret:site%d", siteID) }
