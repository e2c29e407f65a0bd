package core

import (
	"bytes"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"testing"

	"uavdc/internal/geom"
	"uavdc/internal/obs"
	"uavdc/internal/sensornet"
	"uavdc/internal/trace"
	"uavdc/internal/tsp"
	"uavdc/internal/units"
)

// These are the planner-level differential tests behind the fast-path
// parity contract (EXPERIMENTS.md): the spatial-index-pruned candidate
// scan, the incremental and cached-edge insertion pricing, and the
// memoized distance matrices must yield plans bit-identical to the
// retained reference scan, at every worker count, because the fast path
// only skips candidates whose award is provably zero and substitutes
// arithmetic that produces the exact same float64s.

// pricingFixture is one planner input of the differential suite.
type pricingFixture struct {
	name string
	in   *Instance
}

// latticeInstance is a δ = 15 m field of duplicate-position sensors: the
// medium field's sensors moved in pairs onto a 6-column lattice of grid
// centres three squares apart, with the depot on a grid centre too. Every
// stop then sits on the lattice, where mirror-image edges give bit-equal
// insertion deltas, so the scans meet exact slot ties — the case where
// the slot cache must keep the full scan's lowest slot. data > 0 gives
// every sensor that volume, which adds exact ratio ties between twins'
// candidates; 0 keeps the generated volumes.
func latticeInstance(t testing.TB, capacity units.Joules, data float64) *Instance {
	t.Helper()
	in := mediumInstance(t, 5, capacity)
	in.Delta = 15
	centre := func(i int) float64 { return 7.5 + 15*float64(i) }
	net := *in.Net
	net.Sensors = append([]sensornet.Sensor(nil), net.Sensors...)
	for v := range net.Sensors {
		i, j := (v/2)%6, (v/2)/6
		net.Sensors[v].Pos = geom.Pt(centre(3*i+3), centre(3*j+3))
		if data > 0 {
			net.Sensors[v].Data = data
		}
	}
	net.Depot = geom.Pt(centre(10), centre(10))
	in.Net = &net
	return in
}

// planCounted plans in with p under a fresh registry and returns the plan
// and the counter totals.
func planCounted(t *testing.T, p Planner, in *Instance) (*Plan, map[string]int64) {
	t.Helper()
	reg := obs.NewRegistry()
	instr := *in
	instr.Obs = reg
	plan, err := p.Plan(&instr)
	if err != nil {
		t.Fatal(err)
	}
	return plan, reg.Snapshot().Counters
}

// assertSameDecisions fails unless the fast run's counters equal the
// reference run's outside the scan ledger (evaluations, residual
// recomputes and skips, which TestSkippedEvalsReconcile reconciles).
// Accepted and upgraded stops, budget prunes and every tour-polish pass and
// move must match, so a stop inserted at a different slot shows here even
// when the polish later restores the same plan.
func assertSameDecisions(t *testing.T, name string, workers int, ref, fast map[string]int64) {
	t.Helper()
	union := maps.Clone(ref)
	maps.Copy(union, fast)
	for _, c := range slices.Sorted(maps.Keys(union)) {
		switch c {
		case CounterCandidateEvals, CounterResidualRecomputes, CounterScanSkippedDrained:
			continue
		}
		if ref[c] != fast[c] {
			t.Fatalf("%s workers=%d: counter %s: reference %d, fast %d", name, workers, c, ref[c], fast[c])
		}
	}
}

// requireImproveMoves fails unless counters record a tour-polish move.
// Every polish runs right after an accept, so a positive 2-opt or Or-opt
// move count means some accept left a tour that is not its insert's tour,
// the case the slot cache must re-price in full.
func requireImproveMoves(t *testing.T, name string, counters map[string]int64) {
	t.Helper()
	if counters[tsp.CounterTwoOptMoves]+counters[tsp.CounterOrOptMoves] == 0 {
		t.Fatalf("%s: no tour-polish moves; the fixture does not reach the slot cache's fallback", name)
	}
}

// TestFastPathMatchesReferenceAlg1 holds Algorithm 1's dense memoised
// auxiliary-weight table to the reference AuxiliaryWeight closure:
// bit-equal plans and counter snapshots on medium fields and on the
// lattice field, whose duplicate positions give the orienteering solver
// exact cost ties.
func TestFastPathMatchesReferenceAlg1(t *testing.T) {
	var fixtures []pricingFixture
	for _, seed := range []uint64{1, 4} {
		for _, capacity := range []units.Joules{1.2e4, 3e4} {
			fixtures = append(fixtures, pricingFixture{fmt.Sprintf("seed%d-cap%g", seed, capacity), mediumInstance(t, seed, capacity)})
		}
	}
	fixtures = append(fixtures,
		pricingFixture{"lattice", latticeInstance(t, 1.5e4, 0)},
		pricingFixture{"lattice-equal-data", latticeInstance(t, 1.5e4, 100)})
	run := func(in *Instance, reference bool) (*Plan, obs.Snapshot) {
		t.Helper()
		reg := obs.NewRegistry()
		instr := *in
		instr.Obs = reg
		plan, err := (&Algorithm1{reference: reference}).Plan(&instr)
		if err != nil {
			t.Fatal(err)
		}
		return plan, reg.Snapshot()
	}
	for _, fx := range fixtures {
		name := "algorithm1-fast/" + fx.name
		ref, refSnap := run(fx.in, true)
		if len(ref.Stops) == 0 {
			t.Fatalf("%s: empty plan; the fixture does not exercise the solver", name)
		}
		fast, snap := run(fx.in, false)
		assertPlansIdentical(t, name, 1, ref, fast)
		if !refSnap.Equal(snap) {
			t.Errorf("%s: counters diverge:\n%s", name, refSnap.Diff(snap))
		}
	}
}

// TestFastPathMatchesReferenceAlg2 runs Algorithm 2 both ways on several
// instances and worker counts and demands bit-equal plans. Beyond the
// medium fields, a lattice field gives exact slot ties and a generous
// budget makes the tour polish move stops mid-run.
func TestFastPathMatchesReferenceAlg2(t *testing.T) {
	var fixtures []pricingFixture
	for _, seed := range []uint64{1, 4, 9} {
		for _, capacity := range []units.Joules{1.2e4, 3e4} {
			in := mediumInstance(t, seed, capacity)
			in.Delta = 15
			fixtures = append(fixtures, pricingFixture{fmt.Sprintf("seed%d-cap%g", seed, capacity), in})
		}
	}
	moved := mediumInstance(t, 6, 6e4)
	moved.Delta = 15
	fixtures = append(fixtures,
		pricingFixture{"lattice", latticeInstance(t, 1.5e4, 100)},
		pricingFixture{"improve-moves", moved})
	for _, fx := range fixtures {
		name := "algorithm2-fast/" + fx.name
		ref, refCounters := planCounted(t, &Algorithm2{reference: true}, fx.in)
		if fx.in == moved {
			requireImproveMoves(t, name, refCounters)
		}
		for _, workers := range []int{1, 2, 8} {
			fast, counters := planCounted(t, &Algorithm2{Workers: workers}, fx.in)
			assertPlansIdentical(t, name, workers, ref, fast)
			assertSameDecisions(t, name, workers, refCounters, counters)
		}
	}
}

// TestFastPathMatchesReferenceAlg3 does the same for Algorithm 3 across K
// values (K = 1 degenerates to full drains; larger K exercises in-place
// upgrades, whose scan must keep drained in-tour stops visible), plus the
// lattice and tour-polish fixtures.
func TestFastPathMatchesReferenceAlg3(t *testing.T) {
	var fixtures []pricingFixture
	for _, seed := range []uint64{2, 7} {
		for _, k := range []int{1, 2, 4} {
			in := mediumInstance(t, seed, 2e4)
			in.Delta = 15
			in.K = k
			fixtures = append(fixtures, pricingFixture{fmt.Sprintf("seed%d-k%d", seed, k), in})
		}
	}
	lattice := latticeInstance(t, 1.5e4, 0)
	lattice.K = 3
	moved := mediumInstance(t, 6, 6e4)
	moved.Delta = 15
	moved.K = 3
	fixtures = append(fixtures, pricingFixture{"lattice", lattice}, pricingFixture{"improve-moves", moved})
	for _, fx := range fixtures {
		name := "algorithm3-fast/" + fx.name
		ref, refCounters := planCounted(t, &Algorithm3{reference: true}, fx.in)
		if fx.in == moved {
			requireImproveMoves(t, name, refCounters)
		}
		for _, workers := range []int{1, 2, 8} {
			fast, counters := planCounted(t, &Algorithm3{Workers: workers}, fx.in)
			assertPlansIdentical(t, name, workers, ref, fast)
			assertSameDecisions(t, name, workers, refCounters, counters)
		}
	}
}

// TestFastPathMatchesReferenceLNS covers the destroy/repair loop, whose
// rebuilt states seed residuals before the lazy scan index is built and
// seed the tour by direct inserts before the slot cache prices anything.
// LNS repairs serially, so the worker count varies its base planner. The
// seeded fixture checks that repair really inserted stops into seeded
// tours: the LNS run accepts more stops than its base plan alone.
func TestFastPathMatchesReferenceLNS(t *testing.T) {
	fixtures := []pricingFixture{
		{"seed3", mediumInstance(t, 3, 2e4)},
		{"seed8", mediumInstance(t, 8, 2e4)},
		{"lattice", latticeInstance(t, 2e4, 0)},
	}
	seeded := mediumInstance(t, 6, 4e4)
	seeded.Delta = 15
	fixtures = append(fixtures, pricingFixture{"seeded", seeded})
	for _, fx := range fixtures {
		fx.in.K = 3
	}
	_, base := planCounted(t, &Algorithm3{}, seeded)
	for _, fx := range fixtures {
		name := "lns-fast/" + fx.name
		ref, refCounters := planCounted(t, &LNSPlanner{reference: true}, fx.in)
		if fx.in == seeded && refCounters[CounterAcceptedStops] <= base[CounterAcceptedStops] {
			t.Fatalf("%s: LNS accepted %d stops, its base alone %d; no repair inserted into a seeded tour",
				name, refCounters[CounterAcceptedStops], base[CounterAcceptedStops])
		}
		for _, workers := range []int{1, 2, 8} {
			fast, counters := planCounted(t, &LNSPlanner{Base: &Algorithm3{Workers: workers}}, fx.in)
			assertPlansIdentical(t, name, workers, ref, fast)
			assertSameDecisions(t, name, workers, refCounters, counters)
		}
	}
}

// TestFastPathMatchesReferenceReplan covers the open-path replanner,
// including the excluded-candidate accounting.
func TestFastPathMatchesReferenceReplan(t *testing.T) {
	for _, seed := range []uint64{3, 6} {
		in := mediumInstance(t, seed, 2e4)
		full, err := (&Algorithm3{}).Plan(in)
		if err != nil {
			t.Fatal(err)
		}
		if len(full.Stops) < 3 {
			t.Fatalf("need a multi-stop plan, got %d", len(full.Stops))
		}
		banned := full.Stops[0].Pos
		state := ResidualState{
			Pos:      full.Stops[1].Pos,
			Budget:   in.Model.Capacity / 2,
			Residual: residualAfter(in, full, 2),
			K:        2,
			Exclude:  func(p geom.Point) bool { return p.Dist(banned) < 1e-9 },
		}
		refState := state
		refState.reference = true
		ref, err := ReplanResidual(in, refState)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 8} {
			st := state
			st.Workers = workers
			fast, err := ReplanResidual(in, st)
			if err != nil {
				t.Fatal(err)
			}
			assertPlansIdentical(t, "replan-fast", workers, ref, fast)
		}
	}
}

// TestFastPathMatchesReferenceBaseline holds the baseline planner's fast
// path — the memoised matrix, the in-place removal pricing, and the O(n)
// removal certificate (tsp.ImproveAfterRemove) in place of a full
// tsp.Improve after every removal — to the Reference path: bit-equal
// plans, counter snapshots and stripped traces at GOMAXPROCS 1, 2 and 8.
// Fixtures: medium fields, a budget so tight the tour is pruned below the
// certificate's small-tour cutoff of 8 items, and a field of
// duplicate-position sensors, half of the twins holding no data, so
// removals meet zero-length edges and free no energy.
func TestFastPathMatchesReferenceBaseline(t *testing.T) {
	dup := mediumInstance(t, 5, 3e4)
	net := *dup.Net
	net.Sensors = append([]sensornet.Sensor(nil), net.Sensors...)
	for v := 1; v < len(net.Sensors); v += 2 {
		net.Sensors[v].Pos = net.Sensors[v-1].Pos
		if v%4 == 1 {
			net.Sensors[v].Data = 0
		}
	}
	dup.Net = &net
	fixtures := []struct {
		name     string
		in       *Instance
		maxStops int
	}{
		{"medium-seed1", mediumInstance(t, 1, 2e4), len(dup.Net.Sensors)},
		{"medium-seed7", mediumInstance(t, 7, 4e4), len(dup.Net.Sensors)},
		{"tight", mediumInstance(t, 3, 1.5e3), 6},
		{"duplicates", dup, len(dup.Net.Sensors)},
	}
	run := func(in *Instance, reference bool) (*Plan, obs.Snapshot, trace.Trace) {
		t.Helper()
		reg := obs.NewRegistry()
		buf := trace.NewBuffer()
		buf.SetDetail(true)
		instr := *in
		instr.Obs = trace.With(reg, buf)
		plan, err := (&BenchmarkPlanner{reference: reference}).Plan(&instr)
		if err != nil {
			t.Fatal(err)
		}
		return plan, reg.Snapshot(), buf.Snapshot()
	}
	jsonl := func(tr trace.Trace) []byte {
		t.Helper()
		var b bytes.Buffer
		if err := trace.WriteJSONL(&b, tr, true); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	for _, fx := range fixtures {
		ref, refSnap, refTrace := run(fx.in, true)
		if refSnap.Counters[CounterBenchRemovals] == 0 {
			t.Fatalf("%s: nothing pruned; the fixture does not exercise the prune loop", fx.name)
		}
		if len(ref.Stops) > fx.maxStops {
			t.Fatalf("%s: %d stops left, fixture wants at most %d", fx.name, len(ref.Stops), fx.maxStops)
		}
		for _, procs := range []int{1, 2, 8} {
			prev := runtime.GOMAXPROCS(procs)
			fast, snap, tr := run(fx.in, false)
			runtime.GOMAXPROCS(prev)
			assertPlansIdentical(t, "benchmark-fast/"+fx.name, procs, ref, fast)
			if !refSnap.Equal(snap) {
				t.Errorf("%s GOMAXPROCS=%d: counters diverge:\n%s", fx.name, procs, refSnap.Diff(snap))
			}
			if !bytes.Equal(jsonl(refTrace), jsonl(tr)) {
				t.Errorf("%s GOMAXPROCS=%d: stripped trace diverges", fx.name, procs)
			}
		}
	}
	// The duplicates fixture's first removal must be a zero-data twin: one
	// that frees no energy and is taken on sight.
	_, _, tr := run(dup, false)
	for _, r := range tr.Records {
		if r.Name != EventBenchRemove {
			continue
		}
		if v := int(r.Attrs[0].Num) - 1; net.Sensors[v].Data > 0 {
			t.Errorf("duplicates: first removal is sensor %d holding %v MB, want a zero-data twin", v, net.Sensors[v].Data)
		}
		break
	}
}

// TestSkippedEvalsReconcile is the accounting oracle for the pruned scan:
// per planner, the fast path's candidate evaluations plus its skipped
// (provably zero-award) candidates must equal the reference path's
// evaluations exactly. Any hole in the exactness argument shows up here as
// a candidate that was neither evaluated nor proven skippable.
func TestSkippedEvalsReconcile(t *testing.T) {
	run := func(name string, plan func(reference bool, reg *obs.Registry) error) {
		t.Helper()
		refReg := obs.NewRegistry()
		if err := plan(true, refReg); err != nil {
			t.Fatalf("%s reference: %v", name, err)
		}
		fastReg := obs.NewRegistry()
		if err := plan(false, fastReg); err != nil {
			t.Fatalf("%s fast: %v", name, err)
		}
		ref := refReg.Snapshot().Counters
		fast := fastReg.Snapshot().Counters
		if ref[CounterScanSkippedDrained] != 0 {
			t.Errorf("%s: reference path recorded %d skips", name, ref[CounterScanSkippedDrained])
		}
		refEvals := ref[CounterCandidateEvals]
		fastEvals := fast[CounterCandidateEvals]
		skipped := fast[CounterScanSkippedDrained]
		if refEvals == 0 {
			t.Fatalf("%s: reference recorded no evaluations", name)
		}
		if fastEvals+skipped != refEvals {
			t.Errorf("%s: fast evals %d + skipped %d != reference evals %d",
				name, fastEvals, skipped, refEvals)
		}
		if skipped == 0 {
			t.Errorf("%s: fast path skipped nothing — pruning is inert on this instance", name)
		}
	}

	run("algorithm2", func(reference bool, reg *obs.Registry) error {
		in := mediumInstance(t, 4, 3e4)
		in.Delta = 15
		in.Obs = reg
		_, err := (&Algorithm2{reference: reference}).Plan(in)
		return err
	})
	run("algorithm3", func(reference bool, reg *obs.Registry) error {
		in := mediumInstance(t, 4, 3e4)
		in.Delta = 15
		in.K = 3
		in.Obs = reg
		_, err := (&Algorithm3{reference: reference}).Plan(in)
		return err
	})
	run("replan", func(reference bool, reg *obs.Registry) error {
		in := mediumInstance(t, 4, 3e4)
		in.Obs = reg
		_, err := ReplanResidual(in, ResidualState{
			Pos:       in.Net.Depot,
			Budget:    in.Budget(),
			Residual:  residualAfter(in, &Plan{}, 0),
			K:         2,
			reference: reference,
		})
		return err
	})
}

// TestFastCountersDeterministicAcrossWorkers extends the PR4 oracle to the
// pruned scan: every counter, including the skip ledger, must be
// bit-identical at any worker count.
func TestFastCountersDeterministicAcrossWorkers(t *testing.T) {
	snapFor := func(workers int) obs.Snapshot {
		reg := obs.NewRegistry()
		in := mediumInstance(t, 9, 2e4)
		in.Delta = 12
		in.K = 3
		in.Obs = reg
		if _, err := (&Algorithm3{Workers: workers}).Plan(in); err != nil {
			t.Fatal(err)
		}
		return reg.Snapshot()
	}
	base := snapFor(1)
	if base.Counters[CounterScanSkippedDrained] == 0 {
		t.Fatal("serial fast run skipped nothing; instance too small to exercise pruning")
	}
	for _, w := range []int{2, 4, 8} {
		snap := snapFor(w)
		if !base.Equal(snap) {
			t.Errorf("counters diverge at workers=%d:\n%s", w, base.Diff(snap))
		}
	}
}

// Candidate-generation micro-benchmark: one full Algorithm 2 plan under
// the reference scan vs the pruned scan. Paired with the 2-opt benchmarks
// in internal/tsp these are the micro panels behind BENCH_PR6.json.
func benchAlg2(b *testing.B, reference bool) {
	in := mediumInstance(b, 1, 3e4)
	in.Delta = 12
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (&Algorithm2{reference: reference}).Plan(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlg2Reference(b *testing.B) { benchAlg2(b, true) }
func BenchmarkAlg2Fast(b *testing.B)      { benchAlg2(b, false) }
