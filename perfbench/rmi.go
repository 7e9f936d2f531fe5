package main

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"cormi/internal/apps/appkit"
	"cormi/internal/core"
	"cormi/internal/model"
	"cormi/internal/rmi"
	"cormi/internal/trace"
)

// level is the optimization level every RMI workload runs at: all
// three of the paper's compile-time optimizations.
const level = rmi.LevelSiteReuseCycle

const (
	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps = 7
	// warmupCalls is each client's call count before timing starts.
	warmupCalls = 2000
	// windows is how many equal windows a timed RMI loop is split into;
	// the latency and throughput metrics are medians over them, so a
	// burst of load from outside the benchmark moves one window, not
	// the result.
	windows = 10
)

// rmiSpec describes one RMI workload: a 2-node cluster (caller node 0,
// callee node 1) running call sites compiled from a MiniJP sketch,
// driven by closed-loop clients.
type rmiSpec struct {
	name    string
	src     string   // the MiniJP sketch the call sites are compiled from
	callees []string // qualified callees, one call site each, in site-index order
	clients int
	tcp     bool // TCP over loopback instead of the in-process channel network
	// newServer builds the callee-side service for a seed.
	newServer func(res *core.Result, seed int64) (*rmi.Service, error)
	// newClient builds client id's seeded input stream.
	newClient func(res *core.Result, seed int64, id int) (client, error)
}

// client is one closed-loop client's seeded input stream and its
// reference check.
type client interface {
	// next draws the next call: its call-site index and arguments.
	next() (site int, args []model.Value)
	// check returns nil when rets is the correct result of the last
	// drawn call.
	check(rets []model.Value) error
}

func (s *rmiSpec) transportName() string {
	if s.tcp {
		return "tcp-loopback"
	}
	return "channel"
}

// rmiRun is one set-up cluster: compiled sketch, registered sites,
// exported service and warmed-up clients.
type rmiRun struct {
	spec    *rmiSpec
	cluster *rmi.Cluster
	res     *core.Result
	infos   []*core.SiteInfo
	sites   []*rmi.CallSite
	svc     *rmi.Service
	ref     rmi.Ref
	clients []client
	rate    float64 // warm-up calls per second per client
}

// start sets up a run: network, cluster (traced when tr is non-nil),
// sketch compile, registration, export, clients and warm-up, which
// includes the HELLO exchange of the first call.
func (s *rmiSpec) start(cfg config, tr *trace.Tracer) (*rmiRun, error) {
	nw, err := newNetwork(s.tcp, cfg.spin)
	if err != nil {
		return nil, err
	}
	opts := []rmi.Option{rmi.WithNetwork(nw)}
	if tr != nil {
		opts = append(opts, rmi.WithTracer(tr))
	}
	r := &rmiRun{spec: s, cluster: rmi.New(2, opts...)}
	if err := r.init(cfg.seed); err != nil {
		r.close()
		return nil, fmt.Errorf("%s setup: %w", s.name, err)
	}
	return r, nil
}

func (r *rmiRun) init(seed int64) error {
	s, c := r.spec, r.cluster
	res, err := core.CompileOpts(s.src, c.Registry, core.Options{})
	if err != nil {
		return err
	}
	r.res = res
	for _, callee := range s.callees {
		si, err := appkit.SoleSite(res, callee)
		if err != nil {
			return err
		}
		cs, err := appkit.Register(c, level, si)
		if err != nil {
			return err
		}
		r.infos = append(r.infos, si)
		r.sites = append(r.sites, cs)
	}
	if r.svc, err = s.newServer(res, seed); err != nil {
		return err
	}
	r.ref = c.Node(1).Export(r.svc)
	for i := 0; i < s.clients; i++ {
		cl, err := s.newClient(res, seed, i)
		if err != nil {
			return err
		}
		r.clients = append(r.clients, cl)
	}
	wu := r.loop(0, warmupCalls, nil)
	if wu.failed > 0 {
		return fmt.Errorf("warm-up: %d failed calls; first: %s", wu.failed, wu.firstErr)
	}
	r.rate = float64(warmupCalls) / wu.elapsed.Seconds()
	return nil
}

func (r *rmiRun) close() { r.cluster.Close() }

// loopResult is one closed-loop phase's outcome.
type loopResult struct {
	lat      []int64 // per-call latency in ns, every client's calls
	end      []int64 // each call's completion, ns after the loop started
	failed   int64
	firstErr string
	start    time.Time
	elapsed  time.Duration
}

// loop runs every client as a closed loop, each issuing its next call
// only after the previous one returned, for d (when d > 0) or for
// calls calls per client. With recs, each Invoke is recorded as an
// rmi.invoke span in its client's recorder.
func (r *rmiRun) loop(d time.Duration, calls int, recs []*recorder) loopResult {
	type part struct {
		lat, end []int64
		failed   int64
		firstErr string
	}
	parts := make([]part, len(r.clients))
	hint := calls
	if d > 0 {
		hint = int(r.rate*d.Seconds()*1.5) + 1024
	}
	caller := r.cluster.Node(0)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i, cl := range r.clients {
		wg.Add(1)
		go func(i int, cl client) {
			defer wg.Done()
			p := &parts[i]
			p.lat = make([]int64, 0, hint)
			p.end = make([]int64, 0, hint)
			var rec *recorder
			if recs != nil {
				rec = recs[i]
			}
			for n := 0; calls == 0 || n < calls; n++ {
				site, args := cl.next()
				t0 := time.Now()
				rets, err := r.sites[site].Invoke(caller, r.ref, args)
				t1 := time.Now()
				rec.add("rmi.invoke", t0, t1, -1, int64(i)<<40|int64(n))
				p.lat = append(p.lat, t1.Sub(t0).Nanoseconds())
				p.end = append(p.end, t1.Sub(start).Nanoseconds())
				if err == nil {
					err = cl.check(rets)
				}
				if err != nil {
					if p.failed == 0 {
						p.firstErr = err.Error()
					}
					p.failed++
				}
				if d > 0 && t1.After(deadline) {
					break
				}
			}
		}(i, cl)
	}
	wg.Wait()
	out := loopResult{start: start, elapsed: time.Since(start)}
	for _, p := range parts {
		out.lat = append(out.lat, p.lat...)
		out.end = append(out.end, p.end...)
		out.failed += p.failed
		if out.firstErr == "" {
			out.firstErr = p.firstErr
		}
	}
	return out
}

// windows splits the loop by completion time into windows of win
// and returns, for every full window, its p50, p90 and p99 latency in
// ns and its calls per second.
func (lr loopResult) windows(win time.Duration) (p50, p90, p99, rate []float64) {
	buckets := make([][]int64, int(lr.elapsed/win))
	for i, e := range lr.end {
		if w := int(e / int64(win)); w < len(buckets) {
			buckets[w] = append(buckets[w], lr.lat[i])
		}
	}
	for _, b := range buckets {
		slices.Sort(b)
		p50 = append(p50, quantile(b, 0.50))
		p90 = append(p90, quantile(b, 0.90))
		p99 = append(p99, quantile(b, 0.99))
		rate = append(rate, float64(len(b))/win.Seconds())
	}
	return p50, p90, p99, rate
}

// account adds a loop's calls and failures to the report.
func (rep *report) account(lr loopResult) {
	rep.attempted += int64(len(lr.lat))
	if lr.failed > 0 {
		rep.failed += lr.failed
		if rep.firstErr == "" {
			rep.firstErr = lr.firstErr
		}
	}
}

// describe notes the workload record and the verdicts its sketch
// compiled to. The verdicts are a report, not a gate: a better
// analysis changes them without failing the run.
func (r *rmiRun) describe(rep *report) {
	s := r.spec
	rep.notef("workload %s: loop=closed clients=%d transport=%s level=%q", s.name, s.clients, s.transportName(), level.String())
	ex := r.res.Explain(s.name)
	for _, si := range r.infos {
		for _, d := range ex.Sites {
			if d.Site == si.Name {
				rep.notef("verdict %s", verdictLine(d))
			}
		}
	}
}

// verdictLine renders one call site's compile-time decisions.
func verdictLine(d core.SiteDecision) string {
	cycle := func(c core.CycleDecision) string {
		if c.Elided {
			return "ELIDED"
		}
		if c.Witness != nil {
			return fmt.Sprintf("KEPT(%s@%d)", c.Witness.Kind, c.Witness.RepeatedAlloc)
		}
		return "KEPT"
	}
	value := func(v core.ValueDecision) string {
		s := v.Kind + "/" + v.PlanShape
		switch {
		case v.PlanShape == "primitive":
		case v.Reuse.Applied:
			s += "/reuse=APPLIED"
		default:
			s += "/reuse=DENIED(" + v.Reuse.DeniedRule + ")"
		}
		return s
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s -> %s | args:%s", d.Site, d.Callee, cycle(d.CycleCheck))
	if d.RetCycleCheck != nil {
		fmt.Fprintf(&b, " ret:%s", cycle(*d.RetCycleCheck))
	}
	for _, a := range d.Args {
		fmt.Fprintf(&b, " | a%d:%s", a.Index, value(a))
	}
	if d.Ret != nil {
		fmt.Fprintf(&b, " | ret %s", value(*d.Ret))
	}
	return b.String()
}

// measure is the untraced end-to-end run.
func (s *rmiSpec) measure(cfg config) (*report, error) {
	rep := newReport()
	setups := make([]float64, 0, setupReps)
	var run *rmiRun
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		r, err := s.start(cfg, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			r.close()
		} else {
			run = r
		}
	}
	defer run.close()
	run.describe(rep)

	runtime.GC()
	a0 := readAllocs()
	lr := run.loop(cfg.dur, 0, nil)
	a1 := readAllocs()
	rep.account(lr)
	calls := float64(len(lr.lat))
	p50s, p90s, p99s, rates := lr.windows(cfg.dur / windows)
	p50, p90, p99, rate := median(p50s)/1e3, median(p90s)/1e3, median(p99s)/1e3, median(rates)
	lr = loopResult{}
	live := liveHeapMB()
	runtime.KeepAlive(run)

	rep.set("op_p50_us", p50, "us")
	rep.set("op_tail_us", p90, "us")
	rep.set("ops_per_s", rate, "1/s")
	rep.set("allocs_per_op", ratio(float64(a1.mallocs-a0.mallocs), calls), "count")
	rep.set("alloc_bytes_per_op", ratio(float64(a1.bytes-a0.bytes), calls), "B")
	rep.set("live_heap_mb", live, "MB")
	rep.set("setup_s", median(setups), "s")
	rep.notef("call_p50_us=%.3f call_p90_us=%.3f call_p99_us=%.3f calls_per_s=%.1f: medians over %d windows of %v (n=%d calls, about %d per window, 1%% of them beyond p99) ops_failed_ratio=%g",
		p50, p90, p99, rate, len(p50s), cfg.dur/windows, int64(calls), int64(calls)/windows, ratio(float64(rep.failed), float64(rep.attempted)))
	rep.notef("setup_s median of %d set-ups: %v", setupReps, setups)
	return rep, nil
}
