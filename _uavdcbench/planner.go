package main

import (
	"runtime"
	"strings"
	"time"

	"uavdc/internal/core"
	"uavdc/internal/geom"
	"uavdc/internal/hover"
	"uavdc/internal/matching"
	"uavdc/internal/obs"
	"uavdc/internal/orienteering"
	"uavdc/internal/simulate"
	"uavdc/internal/trace"
	"uavdc/internal/tsp"
)

// plannerRun is what one pass of the four planners over a list of fields
// measured.
type plannerRun struct {
	// calls holds each planner's per-call wall seconds.
	calls    map[string][]float64
	validate []float64 // core.ValidatePlanPhysics seconds per plan
	simulate []float64 // simulate.Run seconds per plan

	// Traced passes only: per-field span self time summed over the four
	// calls, keyed by span name; obs totals over all calls; and the
	// flight-recorder buffers, one per call.
	self   map[string][]float64
	counts *obs.Registry
	spans  []*trace.Buffer
}

// runPlanners calls each paper planner on each field, serially, and
// checks every plan: physics validation, a completed flight simulation,
// and volume and stop count equal to the recorded outcome. With reps > 1
// the pass over the fields is followed by reps-1 more passes that call
// only the cheap planners, and a cheap planner's time on a field is its
// fastest call. At paper scale those calls take a fifth of a second, so
// a slowdown of the shared host that lasts a few seconds can fill a
// call; with the repeats spread over the whole run, it fills at most
// some of a field's calls. A traced pass (reps 1) attaches an obs
// registry and flight recorder to each instance.
func runPlanners(p preset, fields []field, traced bool, reps int, exp expectedTable, chk *checker) plannerRun {
	r := plannerRun{calls: map[string][]float64{}}
	if traced {
		r.self = map[string][]float64{}
		r.counts = obs.NewRegistry()
	}
	best := make([]map[string]float64, len(fields))
	for rep := 0; rep < reps; rep++ {
		for fi, f := range fields {
			if rep == 0 {
				best[fi] = map[string]float64{}
			}
			fieldSelf := map[string]float64{}
			for _, pl := range planners {
				if rep > 0 && !pl.cheap {
					continue
				}
				reg, buf, wall, plan, err := planOnce(p, f, pl.name, pl.make(), traced)
				chk.attempt()
				if err != nil {
					chk.failOp("%s field %d %s: %v", p.key, f.seed, pl.name, err)
					continue
				}
				if t, ok := best[fi][pl.name]; !ok || wall < t {
					best[fi][pl.name] = wall
				}
				r.verify(p, f, pl.name, plan, exp, buf, chk)
				if !traced {
					continue
				}
				r.spans = append(r.spans, buf)
				r.counts.Merge(reg)
				var inside float64
				for _, ph := range trace.Summarize(buf.Snapshot(), 0).Phases {
					if !strings.HasPrefix(ph.Name, benchSpanPrefix) {
						fieldSelf[ph.Name] += ph.Self
						inside += ph.Self
					}
				}
				if inside > wall {
					chk.failRun("%s field %d %s: span self time %.6f s exceeds the call's %.6f s", p.key, f.seed, pl.name, inside, wall)
				}
				if fi == 0 {
					// Counts must repeat exactly: plan the first field again.
					reg2, _, _, _, err := planOnce(p, f, pl.name, pl.make(), true)
					if err != nil || !reg.Snapshot().Equal(reg2.Snapshot()) {
						chk.failRun("%s field %d %s: obs counts differ between repeats: %s", p.key, f.seed, pl.name, reg.Snapshot().Diff(reg2.Snapshot()))
					}
				}
			}
			if traced {
				for name, s := range fieldSelf {
					r.self[name] = append(r.self[name], s)
				}
			}
		}
	}
	for _, fb := range best {
		for _, pl := range planners {
			if t, ok := fb[pl.name]; ok {
				r.calls[pl.name] = append(r.calls[pl.name], t)
			}
		}
	}
	return r
}

// add appends another untraced pass's timings to r.
func (r *plannerRun) add(o plannerRun) {
	for name, c := range o.calls {
		r.calls[name] = append(r.calls[name], c...)
	}
	r.validate = append(r.validate, o.validate...)
	r.simulate = append(r.simulate, o.simulate...)
}

// benchSpanPrefix names the spans the benchmark records around the
// calls it makes; every other span name comes from the program.
const benchSpanPrefix = "uavdcbench/"

// planOnce times one planner call on a fresh instance, after a
// collection so that garbage from earlier calls is not charged to it.
func planOnce(p preset, f field, name string, pl core.Planner, traced bool) (*obs.Registry, *trace.Buffer, float64, *core.Plan, error) {
	in := p.instance(f.net)
	var reg *obs.Registry
	var buf *trace.Buffer
	end := func(...trace.Attr) {}
	if traced {
		reg, buf = obs.NewRegistry(), trace.NewBuffer()
		in.Obs = trace.With(reg, buf)
	}
	runtime.GC()
	if traced {
		end = buf.Begin(benchSpanPrefix+name, trace.Int("field", int(f.seed)))
	}
	start := time.Now()
	plan, err := pl.Plan(in)
	wall := time.Since(start).Seconds()
	end()
	return reg, buf, wall, plan, err
}

// verify checks one plan, timing the validator and the simulator; a
// traced pass records a span around each on the call's buffer.
func (r *plannerRun) verify(p preset, f field, name string, plan *core.Plan, exp expectedTable, tr *trace.Buffer, chk *checker) {
	in := p.instance(f.net)
	end := func(...trace.Attr) {}
	if tr != nil {
		end = tr.Begin(benchSpanPrefix + "core.ValidatePlanPhysics")
	}
	start := time.Now()
	err := core.ValidatePlanPhysics(in.Net, in.Model, in.Physics(), plan)
	r.validate = append(r.validate, time.Since(start).Seconds())
	end()
	if err != nil {
		chk.failOp("%s field %d %s: invalid plan: %v", p.key, f.seed, name, err)
		return
	}
	if tr != nil {
		end = tr.Begin(benchSpanPrefix + "simulate.Run")
	}
	start = time.Now()
	sim := simulate.Run(in.Net, in.Model, plan, simulate.Options{})
	r.simulate = append(r.simulate, time.Since(start).Seconds())
	end()
	if !sim.Completed {
		chk.failOp("%s field %d %s: simulated mission aborted: %s", p.key, f.seed, name, sim.AbortReason)
		return
	}
	if err := exp.check(p, f.seed, name, plan); err != nil {
		chk.failOp("%v", err)
	}
}

// candidateLayer times hover.Build on each field and sums its counts;
// the first field is built twice and must give the same counts.
func candidateLayer(p preset, fields []field, tr *trace.Buffer, m metricSet, chk *checker) {
	var ms []float64
	var cands, empty, dup int
	for i, f := range fields {
		in := p.instance(f.net)
		end := tr.Begin(benchSpanPrefix+"hover.Build", trace.Int("field", int(f.seed)))
		start := time.Now()
		set, err := hover.Build(in.Net, in.Model, in.Delta, hover.Options{CoverRadius: in.EffectiveCoverRadius()})
		ms = append(ms, 1e3*time.Since(start).Seconds())
		end()
		if err != nil {
			chk.failRun("hover.Build field %d: %v", f.seed, err)
			continue
		}
		cands, empty, dup = cands+set.Len(), empty+set.PrunedEmpty, dup+set.PrunedDup
		if i == 0 {
			again, err := hover.Build(in.Net, in.Model, in.Delta, hover.Options{CoverRadius: in.EffectiveCoverRadius()})
			if err != nil || again.Len() != set.Len() || again.PrunedEmpty != set.PrunedEmpty || again.PrunedDup != set.PrunedDup {
				chk.failRun("hover.Build field %d: counts differ between repeats", f.seed)
			}
		}
	}
	m.add("hover.build_ms", median(ms), "ms")
	m.add("hover.candidates", float64(cands), "count")
	m.add("hover.pruned_empty", float64(empty), "count")
	m.add("hover.pruned_dup", float64(dup), "count")
}

// tourLayer times the baseline's tour construction on its own: a
// Christofides tour over the depot and every sensor, then tsp.Improve,
// over the memoised Euclidean metric the baseline planner uses.
func tourLayer(fields []field, tr *trace.Buffer, m metricSet, chk *checker) {
	var chris, impr []float64
	for _, f := range fields {
		net := f.net
		pts := make([]geom.Point, 0, len(net.Sensors)+1)
		pts = append(pts, net.Depot)
		for _, s := range net.Sensors {
			pts = append(pts, s.Pos)
		}
		dist := tsp.MemoMetric(len(pts), func(i, j int) float64 { return pts[i].Dist(pts[j]) })
		items := make([]int, len(pts))
		for i := range items {
			items[i] = i
		}
		end := tr.Begin(benchSpanPrefix+"tsp.Christofides", trace.Int("field", int(f.seed)))
		start := time.Now()
		tour, err := tsp.Christofides(items, dist)
		chris = append(chris, 1e3*time.Since(start).Seconds())
		end()
		if err != nil {
			chk.failRun("tsp.Christofides field %d: %v", f.seed, err)
			continue
		}
		before := tour.Cost(dist)
		end = tr.Begin(benchSpanPrefix+"tsp.Improve", trace.Int("field", int(f.seed)))
		start = time.Now()
		tsp.Improve(&tour, dist)
		impr = append(impr, 1e3*time.Since(start).Seconds())
		end()
		if after := tour.Cost(dist); after > before || len(tour.Order) != len(items) {
			chk.failRun("tsp.Improve field %d: tour of %d items grew from %v to %v", f.seed, len(tour.Order), before, after)
		}
	}
	m.add("tsp.christofides_ms", median(chris), "ms")
	m.add("tsp.improve_ms", median(impr), "ms")
}

// plannerLayers reports a traced planner pass: span self times per field
// (median over fields), and obs counts summed over every call.
func plannerLayers(r plannerRun, m metricSet) {
	for _, s := range []struct{ metric, span string }{
		{"core.alg3_iterate_self_s", core.SpanPlanAlg3Iterate},
		{"core.alg2_iterate_self_s", core.SpanPlanAlg2Iterate},
		{"core.bench_prune_self_s", core.SpanPlanBenchPrune},
		{"tsp.improve_self_s", tsp.SpanImprove},
		{"orienteering.localsearch_self_s", orienteering.SpanLocalSearch},
		{"matching.blossom_self_s", matching.SpanBlossom},
	} {
		m.add(s.metric, median(r.self[s.span]), "s")
	}
	c := r.counts.Snapshot().Counters
	for _, name := range []string{
		core.CounterCandidateEvals, core.CounterScanSkippedDrained, core.CounterResidualRecomputes,
		core.CounterAcceptedStops, core.CounterBenchRemovals,
		tsp.CounterTwoOptPasses, tsp.CounterOrOptPasses, tsp.CounterOrOptMoves,
		matching.CounterBlossomRuns,
	} {
		m.add(name, float64(c[name]), "count")
	}
	ratio := 0.0
	if evals := c[core.CounterCandidateEvals]; evals > 0 {
		ratio = float64(c[core.CounterAcceptedStops]) / float64(evals)
	}
	m.add("core.accept_ratio", ratio, "ratio")
	m.add("core.validate_ms", 1e3*median(r.validate), "ms")
	m.add("simulate.run_ms", 1e3*median(r.simulate), "ms")
}

// plannerEndToEnd reports each paper planner's median call time.
func plannerEndToEnd(r plannerRun, m metricSet) {
	for _, pl := range planners {
		m.add(pl.name+"_s", median(r.calls[pl.name]), "s")
	}
}
