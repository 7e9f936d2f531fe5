package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"time"

	"cormi/internal/model"
	"cormi/internal/serial"
	"cormi/internal/stats"
	"cormi/internal/trace"
	"cormi/internal/transport"
	"cormi/internal/wire"
)

// rmiPhases are the 11 phases of one synchronous remote call as the
// runtime tracer records them, in self-time priority order: when
// phases overlap, the earlier one in this list owns the time. Callee
// work comes first, then the caller's own work, then the network legs,
// and last wait_reply, which covers everything the caller waits for.
var rmiPhases = []trace.Phase{
	trace.PhasePlanLookup, trace.PhaseDispatch, trace.PhaseDeserialize,
	trace.PhaseExecute, trace.PhaseReplySerialize,
	trace.PhaseSerialize, trace.PhaseSend, trace.PhaseReplyDeserialize,
	trace.PhaseTransit, trace.PhaseReplyTransit,
	trace.PhaseWaitReply,
}

// phaseSelfTimes pairs the caller and callee spans the flight
// recorder retained and splits each caller span into the self time of
// every phase (its duration minus what higher-priority phases cover).
// It returns the mean self time per call of each phase, indexed like
// rmiPhases, the number of calls averaged, and the wall-clock start
// of the earliest of them.
func phaseSelfTimes(recs []trace.SpanRecord) ([]float64, int, int64) {
	type key struct {
		from int
		seq  int64
		site string
	}
	callee := make(map[key]*trace.SpanRecord)
	for i := range recs {
		if r := &recs[i]; r.Kind == trace.KindCallee {
			callee[key{r.From, r.Seq, r.Site}] = r
		}
	}
	sums := make([]float64, len(rmiPhases))
	var calls int
	since := int64(math.MaxInt64)
	type iv struct{ start, end int64 }
	ivs := make([]iv, len(rmiPhases))
	var cuts []int64
	for i := range recs {
		c := &recs[i]
		if c.Kind != trace.KindCaller || c.Err != "" {
			continue
		}
		e, ok := callee[key{c.From, c.Seq, c.Site}]
		if !ok {
			continue
		}
		cuts = cuts[:0]
		for j, p := range rmiPhases {
			src := c
			if e.PhaseDur[p] > 0 {
				src = e
			}
			s, d := src.PhaseStart[p], src.PhaseDur[p]
			ivs[j] = iv{max(s, c.Start), min(s+d, c.End)}
			if d > 0 {
				cuts = append(cuts, ivs[j].start, ivs[j].end)
			}
		}
		cuts = append(cuts, c.Start, c.End)
		slices.Sort(cuts)
		for k := 1; k < len(cuts); k++ {
			a, b := cuts[k-1], cuts[k]
			if b <= a {
				continue
			}
			for j := range rmiPhases {
				if ivs[j].start <= a && b <= ivs[j].end {
					sums[j] += float64(b - a)
					break
				}
			}
		}
		calls++
		since = min(since, c.Start)
	}
	for j := range sums {
		sums[j] = ratio(sums[j], float64(calls))
	}
	return sums, calls, since
}

// layers is the traced per-layer run: the compiler layers on the
// sketch, an untraced segment (the base of the tracing overhead, the
// GC share and the counter deltas), a traced segment with the runtime
// tracer and the benchmark's own spans, and standalone probes of the
// serial, wire and transport layers on the workload's own inputs.
func (s *rmiSpec) layers(cfg config) (*report, error) {
	rep := newReport()
	epoch := time.Now()
	crec := newRecorder(epoch)
	if _, err := compilerLayers(s.src, 300*time.Millisecond, 10, crec, rep); err != nil {
		return nil, err
	}

	base, err := s.start(cfg, nil)
	if err != nil {
		return nil, err
	}
	base.describe(rep)
	s0, c0 := base.cluster.Counters.Snapshot(), readCPU()
	blr := base.loop(cfg.dur/4, 0, nil)
	c1, s1 := readCPU(), base.cluster.Counters.Snapshot()
	base.close()
	rep.account(blr)
	calls := float64(len(blr.lat))
	d := s1.Sub(s0)
	per := func(v int64) float64 { return ratio(float64(v), calls) }
	rep.set("gc.cpu_share", gcShare(c0, c1), "ratio")
	rep.set("serial.cycle_tables_per_call", per(d.CycleTables), "count")
	rep.set("serial.cycle_lookups_per_call", per(d.CycleLookups), "count")
	rep.set("serial.alloc_objs_per_call", per(d.AllocObjects), "count")
	rep.set("serial.reused_objs_per_call", per(d.ReusedObjs), "count")
	rep.set("serial.reuse_ratio", ratio(float64(d.ReusedObjs), float64(d.ReusedObjs+d.AllocObjects)), "ratio")
	rep.set("serial.inlined_writes_per_call", per(d.InlinedWrites), "count")
	rep.set("wire.bytes_per_call", per(d.WireBytes), "B")
	rep.set("wire.type_bytes_per_call", per(d.TypeBytes), "B")
	rep.set("wire.frames_per_call", per(d.NetFrames), "count")
	rep.set("rmi.retries_per_call", per(d.Retries), "count")

	tr := trace.New(trace.Config{RingSize: 1 << 14})
	run, err := s.start(cfg, tr)
	if err != nil {
		return nil, err
	}
	defer run.close()
	recs := make([]*recorder, s.clients)
	for i := range recs {
		recs[i] = newRecorder(epoch)
	}
	tlr := run.loop(cfg.dur*9/20, 0, recs)
	rep.account(tlr)
	selfs, sampled, since := phaseSelfTimes(tr.Recent())
	var selfSum float64
	for j, p := range rmiPhases {
		rep.set("rmi.phase."+p.String()+"_ns", selfs[j], "ns")
		selfSum += selfs[j]
	}
	// The residual compares the phases with the calls they were
	// sampled from: the calls that started in the same window.
	var window []int64
	for i, lat := range tlr.lat {
		if tlr.start.UnixNano()+tlr.end[i]-lat >= since {
			window = append(window, lat)
		}
	}
	tracedNS, untracedNS := mean(tlr.lat), mean(blr.lat)
	rep.set("rmi.traced_call_us", tracedNS/1e3, "us")
	rep.set("rmi.untraced_call_us", untracedNS/1e3, "us")
	rep.set("rmi.residual_share", 1-ratio(selfSum, mean(window)), "ratio")
	rep.set("trace.overhead_share", ratio(tracedNS, untracedNS)-1, "ratio")
	rep.notef("phase self times: mean over the last %d traced calls (%d calls in their window); traced call mean over %d calls, untraced over %d",
		sampled, len(window), len(tlr.lat), len(blr.lat))

	prec := newRecorder(epoch)
	if err := run.probes(cfg, cfg.dur*3/10, prec, rep); err != nil {
		return nil, err
	}
	path, err := writeSpans(spanDir, fmt.Sprintf("%s-seed%d.jsonl", s.name, cfg.seed), append(append(recs, crec), prec))
	if err != nil {
		return nil, err
	}
	rep.notef("spans written to %s", path)
	return rep, nil
}

// frame is one call's serialized sizes: arguments and results.
type frame struct{ args, rets int }

// probes times the serial, wire and transport layers directly on the
// workload's own inputs, each for a third of budget.
func (r *rmiRun) probes(cfg config, budget time.Duration, rec *recorder, rep *report) error {
	frames, err := r.serialProbe(cfg.seed, budget/3, rec, rep)
	if err != nil {
		return err
	}
	if err := wireProbe(frames, budget/3, rec, rep); err != nil {
		return err
	}
	return transportProbe(r.spec, cfg.spin, frames, budget/3, rec, rep)
}

// serialProbe marshals and unmarshals each call's arguments and the
// server's reference results with the sites' plans and configuration,
// keeping each site's decoded roots as the next read's reuse donors,
// and checks the decoded results. It returns the frame sizes seen.
func (r *rmiRun) serialProbe(seed int64, budget time.Duration, rec *recorder, rep *report) ([]frame, error) {
	cl, err := r.spec.newClient(r.res, seed, 0)
	if err != nil {
		return nil, err
	}
	reg := r.cluster.Registry
	var ctr stats.Counters
	m := wire.NewMessage(1 << 16)
	argDonors := make([][]*model.Object, len(r.sites))
	retDonors := make([][]*model.Object, len(r.sites))
	var frames []frame
	var writeNS, readNS int64
	var n int64
	roundTrip := func(vals []model.Value, plans []*serial.Plan, cfg serial.Config, donors *[]*model.Object, req int64) ([]model.Value, int, error) {
		m.Reset()
		t0 := time.Now()
		if _, err := serial.WriteValues(m, vals, plans, cfg, &ctr); err != nil {
			return nil, 0, err
		}
		t1 := time.Now()
		out, roots, _, err := serial.ReadValues(wire.FromBytes(m.Bytes()), reg, len(vals), plans, cfg, *donors, &ctr)
		t2 := time.Now()
		if err != nil {
			return nil, 0, err
		}
		if cfg.Reuse {
			*donors = roots
		}
		rec.add("serial.write", t0, t1, -1, req)
		rec.add("serial.read", t1, t2, -1, req)
		writeNS += t1.Sub(t0).Nanoseconds()
		readNS += t2.Sub(t1).Nanoseconds()
		return out, m.Len(), nil
	}
	end := time.Now().Add(budget)
	for ; time.Now().Before(end); n++ {
		site, args := cl.next()
		si, scfg := r.infos[site], r.sites[site].Config()
		rets := r.svc.Methods[si.Callee.Name](nil, args)
		_, argLen, err := roundTrip(args, si.ArgPlans, scfg, &argDonors[site], n)
		if err != nil {
			return nil, fmt.Errorf("serial probe: %w", err)
		}
		got, retLen, err := roundTrip(rets, si.RetPlans, scfg, &retDonors[site], n)
		if err != nil {
			return nil, fmt.Errorf("serial probe: %w", err)
		}
		rep.attempted++
		if err := cl.check(got); err != nil {
			rep.fail("serial probe: " + err.Error())
		}
		if len(frames) < 1<<14 {
			frames = append(frames, frame{argLen, retLen})
		}
	}
	rep.set("serial.write_ns", ratio(float64(writeNS), float64(n)), "ns")
	rep.set("serial.read_ns", ratio(float64(readNS), float64(n)), "ns")
	rep.notef("serial probe: %d calls (arguments and results, per call)", n)
	return frames, nil
}

// frameOverhead approximates the call and reply headers the runtime
// adds around the serialized values.
const frameOverhead = 32

// wireProbe seals and unseals frames of the workload's call and reply
// sizes.
func wireProbe(frames []frame, budget time.Duration, rec *recorder, rep *report) error {
	maxLen := 0
	for _, f := range frames {
		maxLen = max(maxLen, f.args, f.rets)
	}
	buf := make([]byte, maxLen+frameOverhead+wire.ChecksumSize)
	rng := rand.New(rand.NewPCG(1, 2))
	for i := range buf {
		buf[i] = byte(rng.Uint32())
	}
	m := wire.NewMessage(0)
	var sealNS, unsealNS, n int64
	end := time.Now().Add(budget)
	for i := 0; time.Now().Before(end); i++ {
		f := frames[i%len(frames)]
		for _, size := range [2]int{f.args, f.rets} {
			m.ResetTo(buf[:size+frameOverhead])
			t0 := time.Now()
			sealed := m.SealFrame()
			t1 := time.Now()
			_, err := wire.Unseal(sealed)
			t2 := time.Now()
			if err != nil {
				return fmt.Errorf("wire probe: %w", err)
			}
			rec.add("wire.seal", t0, t1, -1, int64(i))
			rec.add("wire.unseal", t1, t2, -1, int64(i))
			sealNS += t1.Sub(t0).Nanoseconds()
			unsealNS += t2.Sub(t1).Nanoseconds()
			n++
		}
	}
	rep.set("wire.seal_ns", ratio(float64(sealNS), float64(n)), "ns")
	rep.set("wire.unseal_ns", ratio(float64(unsealNS), float64(n)), "ns")
	rep.notef("wire probe: %d frames", n)
	return nil
}

// transportProbe runs bare Endpoint.Send / Recv round trips over a
// fresh network of the workload's kind: the workload's clients send
// call-sized frames from node 0 concurrently, node 1 answers each with
// a reply-sized frame, and a demultiplexer on node 0 hands replies
// back to their senders, as the runtime's receive loop does.
func transportProbe(s *rmiSpec, spin time.Duration, frames []frame, budget time.Duration, rec *recorder, rep *report) error {
	nw, err := newNetwork(s.tcp, spin)
	if err != nil {
		return err
	}
	ep0, ep1 := nw.Endpoint(0), nw.Endpoint(1)
	var bg sync.WaitGroup
	bg.Add(2)
	go func() { // echo server on node 1
		defer bg.Done()
		for {
			p, ok := ep1.Recv()
			if !ok {
				return
			}
			out := wire.GetBuf(int(p.Payload[1]) | int(p.Payload[2])<<8 | int(p.Payload[3])<<16)
			out[0] = p.Payload[0]
			wire.PutBuf(p.Payload)
			if ep1.Send(transport.Packet{From: 1, To: 0, Payload: out}) != nil {
				return
			}
		}
	}()
	replies := make([]chan []byte, s.clients)
	for i := range replies {
		replies[i] = make(chan []byte, 1)
	}
	go func() { // node 0's receive loop
		defer bg.Done()
		for {
			p, ok := ep0.Recv()
			if !ok {
				return
			}
			replies[p.Payload[0]] <- p.Payload
		}
	}()

	type part struct {
		sendNS, rttNS, n int64
		err              error
	}
	parts := make([]part, s.clients)
	end := time.Now().Add(budget)
	var wg sync.WaitGroup
	for id := range parts {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			p := &parts[id]
			for i := id; time.Now().Before(end); i += s.clients {
				f := frames[i%len(frames)]
				req := wire.GetBuf(max(f.args+frameOverhead, 4))
				size := f.rets + frameOverhead
				req[0], req[1], req[2], req[3] = byte(id), byte(size), byte(size>>8), byte(size>>16)
				t0 := time.Now()
				if err := ep0.Send(transport.Packet{From: 0, To: 1, Payload: req}); err != nil {
					p.err = err
					return
				}
				t1 := time.Now()
				var reply []byte
				select {
				case reply = <-replies[id]:
				case <-time.After(10 * time.Second):
					p.err = fmt.Errorf("no reply within 10s")
					return
				}
				t2 := time.Now()
				wire.PutBuf(reply)
				rec.add("transport.send", t0, t1, -1, int64(i))
				rec.add("transport.roundtrip", t0, t2, -1, int64(i))
				p.sendNS += t1.Sub(t0).Nanoseconds()
				p.rttNS += t2.Sub(t0).Nanoseconds()
				p.n++
			}
		}(id)
	}
	wg.Wait()
	nw.Close()
	bg.Wait()
	var sendNS, rttNS, n int64
	for _, p := range parts {
		if p.err != nil {
			return fmt.Errorf("transport probe: %w", p.err)
		}
		sendNS, rttNS, n = sendNS+p.sendNS, rttNS+p.rttNS, n+p.n
	}
	rep.set("transport.send_ns", ratio(float64(sendNS), float64(n)), "ns")
	rep.set("transport.rtt_us", ratio(float64(rttNS), float64(n))/1e3, "us")
	rep.notef("transport probe: %d round trips, %d concurrent senders, %s", n, s.clients, s.transportName())
	return nil
}
