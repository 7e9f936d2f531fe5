package rmi

import (
	"testing"
	"time"

	"cormi/internal/model"
	"cormi/internal/serial"
	"cormi/internal/trace"
	"cormi/internal/wire"
)

// dtraceSetup builds a traced 2-node cluster serving echo(x)=x+1 with
// node 0 head-sampling every root call.
func dtraceSetup(t *testing.T, opts ...Option) (*Cluster, *trace.Tracer, *CallSite, Ref) {
	t.Helper()
	tr := trace.New(trace.Config{RingSize: 256, SampleEvery: 1})
	c := New(2, append([]Option{WithTracer(tr)}, opts...)...)
	t.Cleanup(c.Close)
	const site = "DT.echo.1"
	cs, err := c.NewCallSite(LevelSite, SiteSpec{
		Name: site, Method: "echo",
		ArgPlans: []*serial.Plan{serial.PrimitivePlan(site, model.FInt)},
		RetPlans: []*serial.Plan{serial.PrimitivePlan(site, model.FInt)},
		NumRet:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := c.Node(1).Export(&Service{Name: "DT", Methods: map[string]Method{
		"echo": func(call *Call, args []model.Value) []model.Value {
			return []model.Value{model.Int(args[0].I + 1)}
		},
	}})
	return c, tr, cs, ref
}

// TestTraceContextPropagatesSyncCall proves one sampled synchronous
// call yields a two-span trace: a hop-0 caller root and a hop-1 callee
// child linked by parent ID.
func TestTraceContextPropagatesSyncCall(t *testing.T) {
	c, tr, cs, ref := dtraceSetup(t)
	if _, err := cs.Invoke(c.Node(0), ref, []model.Value{model.Int(1)}); err != nil {
		t.Fatal(err)
	}
	waitFor(func() bool { return storedSpans(tr) >= 2 })
	traces := tr.Traces()
	if len(traces) != 1 {
		t.Fatalf("%d traces retained, want 1", len(traces))
	}
	spans := tr.TraceSpans(traces[0].TraceID)
	if len(spans) != 2 {
		t.Fatalf("%d spans, want caller + callee", len(spans))
	}
	var caller, callee *trace.SpanRecord
	for i := range spans {
		switch spans[i].Kind {
		case trace.KindCaller:
			caller = &spans[i]
		case trace.KindCallee:
			callee = &spans[i]
		}
	}
	if caller == nil || callee == nil {
		t.Fatalf("missing a half: %+v", spans)
	}
	if caller.Hop != 0 || caller.ParentID != 0 {
		t.Errorf("caller hop=%d parent=%d, want root (0, 0)", caller.Hop, caller.ParentID)
	}
	if callee.TraceID != caller.TraceID {
		t.Errorf("callee trace %#x, caller trace %#x", callee.TraceID, caller.TraceID)
	}
	if callee.ParentID != caller.SpanID {
		t.Errorf("callee parent %#x, want the caller span %#x", callee.ParentID, caller.SpanID)
	}
	if callee.Hop != 1 {
		t.Errorf("callee hop %d, want 1", callee.Hop)
	}
	if traces[0].Root == "" {
		t.Error("trace summary has no root site")
	}
}

// TestTraceContextCapDemotion proves per-link capability demotion: a
// peer whose HELLO does not advertise CapTracing receives no trace
// context — the caller's root span still records and samples, the
// callee executes correctly but contributes no span to the trace.
func TestTraceContextCapDemotion(t *testing.T) {
	c, tr, cs, ref := dtraceSetup(t, WithoutCaps(1, wire.CapTracing))
	vals, err := cs.Invoke(c.Node(0), ref, []model.Value{model.Int(41)})
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].I != 42 {
		t.Fatalf("echo over demoted link = %d, want 42", vals[0].I)
	}
	traces := tr.Traces()
	if len(traces) != 1 {
		t.Fatalf("%d traces retained, want the caller's root alone", len(traces))
	}
	spans := tr.TraceSpans(traces[0].TraceID)
	if len(spans) != 1 || spans[0].Kind != trace.KindCaller {
		t.Fatalf("demoted link leaked callee spans into the trace: %+v", spans)
	}
}

// TestTraceContextPipelinedChainOneTrace proves promise pipelining
// inherits the producer's trace: a dependent chain of futures becomes
// one trace whose caller spans link through their promise producers.
func TestTraceContextPipelinedChainOneTrace(t *testing.T) {
	c, tr, cs, ref := dtraceSetup(t)
	const depth = 4
	futs := make([]*Future, depth)
	futs[0] = cs.InvokeAsync(c.Node(0), ref, []model.Value{model.Int(0)}, AsyncOpts{Promised: true})
	for d := 1; d < depth; d++ {
		futs[d] = cs.InvokeAsync(c.Node(0), ref, []model.Value{{}}, AsyncOpts{
			Promised: d < depth-1,
			Promises: []PromiseArg{{Arg: 0, Fut: futs[d-1]}},
		})
	}
	for d := 0; d < depth; d++ {
		if _, err := futs[d].Wait(); err != nil {
			t.Fatalf("link %d: %v", d, err)
		}
	}
	for _, f := range futs {
		f.Release()
	}
	waitFor(func() bool { return storedSpans(tr) >= 2*depth })
	traces := tr.Traces()
	if len(traces) != 1 {
		t.Fatalf("%d traces retained, want the whole chain in 1", len(traces))
	}
	spans := tr.TraceSpans(traces[0].TraceID)
	if len(spans) != 2*depth {
		t.Fatalf("%d spans, want %d (caller+callee per link)", len(spans), 2*depth)
	}
	roots := 0
	for i := range spans {
		if spans[i].Kind == trace.KindCaller && spans[i].ParentID == 0 {
			roots++
		}
		if spans[i].Hop > 1 {
			t.Errorf("span hop %d on a single-link topology", spans[i].Hop)
		}
	}
	if roots != 1 {
		t.Errorf("%d root caller spans, want 1 (later links inherit the first)", roots)
	}
}

// TestTraceContextOneWayLeaf proves one-way calls carry the context:
// the callee half lands in the trace as a leaf even though no reply
// ever flows back.
func TestTraceContextOneWayLeaf(t *testing.T) {
	c, tr, cs, ref := dtraceSetup(t)
	if err := cs.InvokeOneWay(c.Node(0), ref, []model.Value{model.Int(7)}); err != nil {
		t.Fatal(err)
	}
	// One-way execution is fire-and-forget; poll until the callee span
	// lands in the store.
	var callee *trace.SpanRecord
	deadline := time.Now().Add(5 * time.Second)
	for callee == nil {
		if time.Now().After(deadline) {
			t.Fatal("one-way callee span never reached the trace store")
		}
		for _, ts := range tr.Traces() {
			spans := tr.TraceSpans(ts.TraceID)
			for i := range spans {
				if spans[i].Kind == trace.KindCallee {
					callee = &spans[i]
				}
			}
		}
		if callee == nil {
			time.Sleep(time.Millisecond)
		}
	}
	if !callee.OneWay || callee.Hop != 1 {
		t.Errorf("one-way callee oneway=%v hop=%d, want true and 1", callee.OneWay, callee.Hop)
	}
}
