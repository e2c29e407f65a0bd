package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"uavdc"
	"uavdc/internal/oplog"
	"uavdc/internal/rng"
	"uavdc/internal/serve"
	"uavdc/internal/trace"
)

// sizing holds the figures each workload's amount of work is derived
// from. They were measured when the benchmark was defined (2-CPU
// x86-64, go1.24) and are frozen, so every later run of the same
// -seconds offers the same work and the same load.
type sizing struct {
	// planFieldS is the wall time of one plan-paper field's planner
	// calls, the cheap planners' repeats included.
	planFieldS float64
	// missRPS and hotRPS are the closed-loop capacities of serve-miss
	// and serve-hot; missOpenRPS and hotOpenRPS, half of them, are the
	// open-loop rates.
	missRPS, missOpenRPS float64
	hotRPS, hotOpenRPS   float64
}

func sizes(tiny bool) sizing {
	if tiny {
		return sizing{planFieldS: 0.25, missRPS: 40, missOpenRPS: 40, hotRPS: 400, hotOpenRPS: 400}
	}
	return sizing{planFieldS: 3.4, missRPS: 340, missOpenRPS: 170, hotRPS: 12000, hotOpenRPS: 6000}
}

const (
	// closedShare and openShare split -seconds between the serve
	// workloads' closed and open loops.
	closedShare, openShare = 0.6, 0.4
	// workingSet is serve-hot's number of distinct fields.
	workingSet = 16
	// missSample is how many serve-miss bodies are kept and checked
	// against a direct plan after the timed window.
	missSample = 32
	// behindFrac flags an open loop whose sender ended more than this
	// share of the schedule's length behind it.
	behindFrac = 0.05
	// paperServeRequests and paperServeRPS size plan-paper's traced
	// serving session (see serveFields).
	paperServeRequests, paperServeRPS = 400, 200
	// replays is how many of a traced pass's last requests are sent
	// again after its timed window, as cache hits.
	replays = 16
	// cheapReps is how many times plan-paper's untraced pass calls each
	// cheap planner per field (see runPlanners).
	cheapReps = 3
)

// planPaper calls the four paper planners serially on paper-scale
// fields.
func (b *bench) planPaper() error {
	p, _ := presets(b.o.tiny)
	n := max(1, int(math.Round(b.o.seconds/sizes(b.o.tiny).planFieldS)))
	type planState struct {
		fields []field
		exp    expectedTable
	}
	st, setupS, err := timeSetup(setupReps, func() (planState, error) {
		exp, err := loadExpected()
		if err != nil {
			return planState{}, err
		}
		fields, err := p.poolFields(b.o.seed, n)
		return planState{fields, exp}, err
	}, func(planState) error { return nil })
	if err != nil {
		return err
	}
	fields, exp := st.fields, st.exp
	b.provPreset(p)
	b.prov["fields"] = n

	if !b.o.trace {
		untraced := runPlanners(p, fields, false, cheapReps, exp, b.chk)
		plannerEndToEnd(untraced, b.m)
		seeds := make([]uint64, n)
		for i, f := range fields {
			seeds[i] = f.seed
		}
		b.prov["field_seeds"], b.prov["field_seconds"] = seeds, untraced.calls
		// A request of this workload is one field planned by all four
		// planners, as one data point of the paper's figures is.
		perField := make([]float64, n)
		for _, pl := range planners {
			for i, s := range untraced.calls[pl.name] {
				perField[i] += s
			}
		}
		b.m.add("rps", float64(n)/sum(perField), "1/s")
		b.m.add("p50_ms", 1e3*median(perField), "ms")
		b.m.add("p99_ms", 1e3*quantile(perField, 0.99), "ms")
		b.m.add("setup_s", setupS, "s")
		return nil
	}
	// Half the fields suffice for the traced pass's layer figures. The
	// overhead compares it with an untraced pass over the same fields
	// that, like the traced one, calls each planner once per field.
	half := (n + 1) / 2
	untraced := runPlanners(p, fields[:half], false, 1, exp, b.chk)
	traced := runPlanners(p, fields[:half], true, 1, exp, b.chk)
	b.plannerTraced(p, fields[:half], traced)
	b.m.add("trace.overhead_pct", 100*(plannerTotal(traced, half)/plannerTotal(untraced, half)-1), "%")
	if err := b.serveFields(p, fields[:min(2, n)]); err != nil {
		return err
	}
	return b.requestLayers(p, fields[:1])
}

// serveFields measures the serving layers on plan-paper's own fields,
// which the workload otherwise never serves: a traced rig plans each
// field once during set-up and then answers paperServeRequests requests
// for them from the cache, half in a closed loop and half in an open
// loop at paperServeRPS.
func (b *bench) serveFields(p preset, fields []field) error {
	const half = paperServeRequests / 2
	st, err := b.serveSetup(p, true, fields, paperServeRequests, true)
	if err != nil {
		return err
	}
	bufs := make([]*trace.Buffer, runtime.NumCPU())
	for i := range bufs {
		bufs[i] = trace.NewBuffer()
		b.addSpans(fmt.Sprintf("serve-client-%d", i), bufs[i])
	}
	pass, err := b.servePass(st, half, half, paperServeRPS, bufs, nil)
	if err != nil {
		return err
	}
	if err := b.checkServed(st); err != nil {
		return err
	}
	return b.servedLayers(st, pass, true)
}

// plannerTotal is the sum of the four planners' median times over
// their first k calls.
func plannerTotal(r plannerRun, k int) float64 {
	var t float64
	for _, pl := range planners {
		t += median(r.calls[pl.name][:k])
	}
	return t
}

// plannerTraced reports the per-layer metrics of a traced planner pass
// and of the standalone candidate and tour layers.
func (b *bench) plannerTraced(p preset, fields []field, traced plannerRun) {
	plannerLayers(traced, b.m)
	tr := trace.NewBuffer()
	candidateLayer(p, fields, tr, b.m, b.chk)
	tourLayer(fields, tr, b.m, b.chk)
	b.addSpans("layers", tr)
	for i, buf := range traced.spans {
		b.addSpans(fmt.Sprintf("plan-%03d", i), buf)
	}
}

// requestLayers times the request path's layers one call at a time on
// the fields' requests: JSON decode, the canonical key, the uavdc.Plan
// facade and the response encoding.
func (b *bench) requestLayers(p preset, fields []field) error {
	tr := trace.NewBuffer()
	defer b.addSpans("request-layers", tr)
	const reps = 8
	var dec, key, plan, enc []float64
	timed := func(name string, into *[]float64, scale float64, f func() error) error {
		end := tr.Begin(benchSpanPrefix + name)
		start := time.Now()
		err := f()
		*into = append(*into, scale*time.Since(start).Seconds())
		end()
		return err
	}
	for _, f := range fields {
		req := p.request(f.net)
		payload, err := json.Marshal(req)
		if err != nil {
			return err
		}
		var k string
		var res *uavdc.Result
		for i := 0; i < reps; i++ {
			var got serve.Request
			if err := timed("json.Decode", &dec, 1e6, func() error { return json.NewDecoder(bytes.NewReader(payload)).Decode(&got) }); err != nil {
				return fmt.Errorf("decode field %d: %w", f.seed, err)
			}
			if err := timed("Request.Key", &key, 1e6, func() (err error) { k, err = got.Key(); return err }); err != nil {
				return fmt.Errorf("key field %d: %w", f.seed, err)
			}
		}
		if err := timed("uavdc.Plan", &plan, 1e3, func() (err error) {
			res, err = uavdc.Plan(req.Scenario.Scenario(), req.UAV.UAV(), req.Options.Options())
			return err
		}); err != nil {
			return fmt.Errorf("plan field %d: %w", f.seed, err)
		}
		for i := 0; i < reps; i++ {
			if err := timed("serve.EncodeResult", &enc, 1e6, func() error { _, err := serve.EncodeResult(k, res); return err }); err != nil {
				return fmt.Errorf("encode field %d: %w", f.seed, err)
			}
		}
	}
	b.m.add("serve.decode_us", median(dec), "us")
	b.m.add("canon.key_us", median(key), "us")
	b.m.add("uavdc.plan_ms", median(plan), "ms")
	b.m.add("serve.encode_us", median(enc), "us")
	return nil
}

// provPreset records the preset's parameters in the provenance.
func (b *bench) provPreset(p preset) {
	b.prov["preset"] = map[string]any{"key": p.key, "sensors": p.cfg.Gen.NumSensors, "side_m": p.cfg.Gen.Side,
		"delta_m": p.cfg.Delta, "capacity_j": p.cfg.Model.Capacity.F(), "k": p.k}
}

// serveState is what a serve workload sets up: its traffic, and a
// running rig with the working set already cached (serve-hot).
type serveState struct {
	exp      expectedTable
	t        *traffic
	r        *rig
	warmReqs int64
}

// serveWorkload loads an in-process server over loopback HTTP. A closed
// loop gives rps, p50_ms and p99_ms (see windowedP50 and windowedP99).
// On the shared 2-CPU host the benchmark was defined on, the open loop's
// tail followed the host's stalls (serve-hot open-loop p99 ranged
// 1.6–13 ms over ten runs, the closed loop's 0.69–0.85 ms over five), so
// the open loop at a frozen rate, timed from each request's due time, is
// reported as loadgen.open_p50_ms and loadgen.open_p99_ms and in the
// provenance. serve-miss sends a distinct field in every request;
// serve-hot sends only the workingSet fields, cached during set-up. The
// alg*_s metrics come from the paper planners run on the preset's whole
// recorded pool.
func (b *bench) serveWorkload(hot bool) error {
	_, p := presets(b.o.tiny)
	sz := sizes(b.o.tiny)
	capRPS, openRPS := sz.missRPS, sz.missOpenRPS
	if hot {
		capRPS, openRPS = sz.hotRPS, sz.hotOpenRPS
	}
	nClosed := max(1, int(capRPS*closedShare*b.o.seconds))
	nOpen := max(1, int(openRPS*openShare*b.o.seconds))
	total := nClosed + nOpen
	b.provPreset(p)
	b.prov["requests"] = map[string]int{"closed": nClosed, "open": nOpen}
	b.prov["closed_capacity_rps"], b.prov["open_rps"] = capRPS, openRPS
	b.prov["connections"], b.prov["server_workers"] = runtime.NumCPU(), runtime.NumCPU()
	b.prov["loadgen_behind"] = false

	working, err := p.poolFields(b.o.seed, workingSet)
	if err != nil {
		return err
	}
	probe, err := p.poolFields(b.o.seed, p.pool)
	if err != nil {
		return err
	}
	setup := func(traced bool) func() (*serveState, error) {
		return func() (*serveState, error) { return b.serveSetup(p, hot, working, total, traced) }
	}
	teardown := func(s *serveState) error { return s.r.close() }

	st, setupS, err := timeSetup(setupReps, setup(false), teardown)
	if err != nil {
		return err
	}
	// The paper planners plan the pool once, a third each before,
	// between and after the serve loops, so that their medians average
	// the host's speed over the whole run.
	third := (len(probe) + 2) / 3
	untraced := runPlanners(p, probe[:third], false, 1, st.exp, b.chk)
	passA, err := b.servePass(st, nClosed, nOpen, openRPS, nil, func() {
		untraced.add(runPlanners(p, probe[third:2*third], false, 1, st.exp, b.chk))
	})
	if err != nil {
		return err
	}
	untraced.add(runPlanners(p, probe[2*third:], false, 1, st.exp, b.chk))
	if !b.o.trace {
		plannerEndToEnd(untraced, b.m)
		b.m.add("rps", passA.rps, "1/s")
		b.m.add("p50_ms", 1e3*windowedP50(passA.closed), "ms")
		b.m.add("p99_ms", 1e3*windowedP99(passA.closed), "ms")
		b.m.add("setup_s", setupS, "s")
		return b.checkServed(st)
	}
	if err := b.checkServed(st); err != nil {
		return err
	}

	// The traced pass repeats the same traffic on a fresh rig with the
	// op-log on, and its serve.* counts must equal the untraced pass's.
	st2, err := setup(true)()
	if err != nil {
		return err
	}
	traced := runPlanners(p, probe, true, 1, st.exp, b.chk)
	bufs := make([]*trace.Buffer, runtime.NumCPU())
	for i := range bufs {
		bufs[i] = trace.NewBuffer()
		b.addSpans(fmt.Sprintf("client-%d", i), bufs[i])
	}
	passB, err := b.servePass(st2, nClosed, nOpen, openRPS, bufs, nil)
	if err != nil {
		return err
	}
	for _, name := range servedCounters {
		if passA.counts[name] != passB.counts[name] {
			b.chk.failRun("%s: %d in the untraced pass, %d in the traced pass", name, passA.counts[name], passB.counts[name])
		}
	}
	if err := b.checkServed(st2); err != nil {
		return err
	}
	b.plannerTraced(p, probe, traced)
	b.m.add("trace.overhead_pct", 100*(passA.rps/passB.rps-1), "%")
	if err := b.servedLayers(st2, passB, hot); err != nil {
		return err
	}
	return b.requestLayers(p, working)
}

// serveSetup generates the traffic and starts a rig; for serve-hot it
// also sends each working-set field once, so the server plans and
// caches it, and keeps each reply as the body every later request for
// that field must get.
func (b *bench) serveSetup(p preset, hot bool, working []field, total int, traced bool) (*serveState, error) {
	exp, err := loadExpected()
	if err != nil {
		return nil, err
	}
	st := &serveState{exp: exp}
	order := make([]int, total)
	var payloads [][]byte
	if hot {
		for _, f := range working {
			payload, err := json.Marshal(p.request(f.net))
			if err != nil {
				return nil, err
			}
			payloads = append(payloads, payload)
		}
		r := rand.New(rand.NewSource(int64(rng.New(b.o.seed).Split("hot-order").Seed())))
		for i := range order {
			order[i] = r.Intn(len(working))
		}
		st.t = newTraffic(payloads, order, "hit")
	} else {
		src := rng.New(b.o.seed).Split("miss")
		payloads = make([][]byte, total)
		for i := range order {
			f, err := p.field(src.SplitN("field", i).Seed())
			if err != nil {
				return nil, err
			}
			if payloads[i], err = json.Marshal(p.request(f.net)); err != nil {
				return nil, err
			}
			order[i] = i
		}
		st.t = newTraffic(payloads, order, "miss")
		st.t.sample = map[int]bool{}
		for _, i := range rand.New(rand.NewSource(int64(src.Split("sample").Seed()))).Perm(total)[:min(missSample, total)] {
			st.t.sample[i] = true
		}
	}
	r, err := startRig(traced, total+len(payloads)+64)
	if err != nil {
		return nil, err
	}
	st.r = r
	if hot {
		st.t.want = make([][]byte, len(payloads))
		for j, payload := range payloads {
			var body bytes.Buffer
			rep, err := r.post(payload, &body)
			if err == nil && (rep.status != 200 || rep.cache != "miss") {
				err = fmt.Errorf("status %d, cache %q", rep.status, rep.cache)
			}
			if err != nil {
				_ = r.close() // the set-up error is the one to report
				return nil, fmt.Errorf("warm field %d: %w", working[j].seed, err)
			}
			st.t.want[j] = rep.body // body is not reused
		}
	}
	st.warmReqs = r.counts()[serve.CounterRequests]
	return st, nil
}

// passResult is one timed pass of a serve workload: the closed loop's
// throughput and round trips, the open loop's latencies from the due
// time and its sender's lateness, and the serve.* deltas over the pass.
type passResult struct {
	rps          float64
	closed, open []float64
	late         []float64
	counts       map[string]int64
}

// servePass runs the closed loop, then between (when set), then the
// open loop, and closes the rig.
func (b *bench) servePass(st *serveState, nClosed, nOpen int, rate float64, bufs []*trace.Buffer, between func()) (passResult, error) {
	before := st.r.counts()
	wall := closedLoop(st.r, st.t, 0, nClosed, bufs, b.chk)
	if between != nil {
		between()
	}
	open, late := openLoop(st.r, st.t, nClosed, nClosed+nOpen, rate, bufs, b.chk)
	res := passResult{rps: float64(nClosed) / wall, closed: st.t.rtt[:nClosed], open: open, late: late,
		counts: delta(st.r.counts(), before)}
	if bufs != nil {
		b.replay(st, nClosed+nOpen)
	}
	if err := st.r.close(); err != nil {
		return res, err
	}
	if bufs == nil {
		b.prov["open_p50_ms"] = 1e3 * median(open)
		b.prov["open_p99_ms"] = 1e3 * windowedP99(open)
		b.prov["loadgen_late_ms"] = 1e3 * quantile(late, 0.99)
	}
	if late[len(late)-1] > behindFrac*float64(nOpen)/rate {
		b.prov["loadgen_behind"] = true
	}
	if got, want := res.counts[serve.CounterRequests], int64(nClosed+nOpen); got != want {
		b.chk.failRun("serve.requests counted %d timed requests, %d were sent", got, want)
	}
	return res, nil
}

// replay sends the payloads of the last replays of n timed requests
// again once the timed window is over; the server still caches them, so
// each must be a hit. They give serve-miss, whose timed requests never
// hit, a measured Server.Do hit time.
func (b *bench) replay(st *serveState, n int) {
	var body bytes.Buffer
	for i := max(0, n-replays); i < n; i++ {
		b.chk.attempt()
		rep, err := st.r.post(st.t.payloads[st.t.order[i]], &body)
		switch {
		case err != nil:
			b.chk.failOp("replay of request %d: %v", i, err)
		case rep.status != 200:
			b.chk.refuse()
		case rep.cache != "hit":
			b.chk.failOp("replay of request %d: cache disposition %q, want hit", i, rep.cache)
		}
	}
}

// checkServed checks the bodies that could not be checked while they
// were served against serve.EncodeResult of a direct uavdc.Plan call:
// for serve-hot the working set's bodies (which every timed reply
// equalled), for serve-miss the sampled replies.
func (b *bench) checkServed(st *serveState) error {
	check := func(what string, payload, body []byte) error {
		var req serve.Request
		if err := json.Unmarshal(payload, &req); err != nil {
			return err
		}
		key, err := req.Key()
		if err != nil {
			return err
		}
		res, err := uavdc.Plan(req.Scenario.Scenario(), req.UAV.UAV(), req.Options.Options())
		if err != nil {
			return fmt.Errorf("direct plan of %s: %w", what, err)
		}
		want, err := serve.EncodeResult(key, res)
		if err != nil {
			return err
		}
		if !bytes.Equal(body, want) {
			b.chk.failRun("%s: served body differs from the direct plan", what)
		}
		return nil
	}
	for j, body := range st.t.want {
		if err := check(fmt.Sprintf("working-set field %d", j), st.t.payloads[j], body); err != nil {
			return err
		}
	}
	for i := range st.t.sample {
		if body := st.t.kept[i]; body != nil {
			if err := check(fmt.Sprintf("request %d", i), st.t.payloads[st.t.order[i]], body); err != nil {
				return err
			}
		}
	}
	return nil
}

// servedLayers reports the serving layers of the traced pass: the HTTP
// overhead (client round trip minus the Uavdc-Elapsed-Us header), and
// from the op-log the Server.Do time by disposition and each miss's
// queue wait and plan time, which must fit inside its Server.Do time.
func (b *bench) servedLayers(st *serveState, pass passResult, hot bool) error {
	t := st.t
	var overhead []float64
	for i := range t.rtt {
		if t.ok[i] {
			overhead = append(overhead, t.rtt[i]-t.elapsed[i])
		}
	}
	_, recs, err := oplog.Read(st.r.oplog)
	if err != nil {
		return fmt.Errorf("read op-log: %w", err)
	}
	// Disposition times come from the timed requests; where those never
	// hit (serve-miss) or never miss (serve-hot and plan-paper's
	// session), from the replays after the timed window or the set-up's
	// misses, so that every figure is measured. Index 0 holds the timed
	// requests, 1 the others.
	timedEnd := st.warmReqs + pass.counts[serve.CounterRequests]
	var hit, miss, queue, plan [2][]float64
	for _, rec := range recs {
		k := 1
		if rec.Seq > st.warmReqs && rec.Seq <= timedEnd {
			k = 0
		}
		switch rec.Disp {
		case oplog.DispHit:
			hit[k] = append(hit[k], rec.ElapsedS)
		case oplog.DispMiss:
			miss[k], queue[k], plan[k] = append(miss[k], rec.ElapsedS), append(queue[k], rec.QueueS), append(plan[k], rec.PlanS)
			if rec.QueueS+rec.PlanS > rec.ElapsedS {
				b.chk.failRun("op-log record %d: queue %.6f s + plan %.6f s exceed elapsed %.6f s", rec.Seq, rec.QueueS, rec.PlanS, rec.ElapsedS)
			}
		}
	}
	if want := timedEnd + int64(min(replays, len(t.rtt))); int64(len(recs)) != want {
		b.chk.failRun("op-log holds %d records, want %d", len(recs), want)
	}
	timed := func(xs [2][]float64) []float64 {
		if len(xs[0]) > 0 {
			return xs[0]
		}
		return xs[1]
	}
	c := pass.counts
	if hot && c[serve.CounterHits] != c[serve.CounterRequests] {
		b.chk.failRun("serve.hits %d, want one per timed request (%d)", c[serve.CounterHits], c[serve.CounterRequests])
	}
	b.m.add("http.overhead_us", 1e6*median(overhead), "us")
	b.m.add("serve.do_hit_us", 1e6*median(timed(hit)), "us")
	b.m.add("serve.do_miss_ms", 1e3*median(timed(miss)), "ms")
	b.m.add("serve.queue_wait_ms", 1e3*median(timed(queue)), "ms")
	b.m.add("serve.plan_ms", 1e3*median(timed(plan)), "ms")
	looked := c[serve.CounterHits] + c[serve.CounterMisses] + c[serve.CounterCoalesced]
	ratio := 0.0
	if looked > 0 {
		ratio = float64(c[serve.CounterHits]) / float64(looked)
	}
	b.m.add("serve.hit_ratio", ratio, "ratio")
	for _, name := range servedCounters[1:] {
		b.m.add(name, float64(c[name]), "count")
	}
	b.m.add("loadgen.late_ms", 1e3*quantile(pass.late, 0.99), "ms")
	b.m.add("loadgen.open_p50_ms", 1e3*median(pass.open), "ms")
	b.m.add("loadgen.open_p99_ms", 1e3*windowedP99(pass.open), "ms")
	return nil
}
