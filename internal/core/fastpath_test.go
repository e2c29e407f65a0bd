package core

import (
	"bytes"
	"runtime"
	"testing"

	"uavdc/internal/geom"
	"uavdc/internal/obs"
	"uavdc/internal/sensornet"
	"uavdc/internal/trace"
	"uavdc/internal/units"
)

// These are the planner-level differential tests behind the fast-path
// parity contract (EXPERIMENTS.md): the spatial-index-pruned candidate
// scan, the cached-edge insertion pricing, and the memoized distance
// matrices must yield plans bit-identical to the retained reference scan,
// at every worker count, because the fast path only skips candidates whose
// award is provably zero and substitutes arithmetic that produces the
// exact same float64s.

// TestFastPathMatchesReferenceAlg2 runs Algorithm 2 both ways on several
// instances and worker counts and demands bit-equal plans.
func TestFastPathMatchesReferenceAlg2(t *testing.T) {
	for _, seed := range []uint64{1, 4, 9} {
		for _, capacity := range []units.Joules{1.2e4, 3e4} {
			in := mediumInstance(t, seed, capacity)
			in.Delta = 15
			ref, err := (&Algorithm2{Reference: true}).Plan(in)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 8} {
				fast, err := (&Algorithm2{Workers: workers}).Plan(in)
				if err != nil {
					t.Fatal(err)
				}
				assertPlansIdentical(t, "algorithm2-fast", workers, ref, fast)
			}
		}
	}
}

// TestFastPathMatchesReferenceAlg3 does the same for Algorithm 3 across K
// values (K = 1 degenerates to full drains; larger K exercises in-place
// upgrades, whose scan must keep drained in-tour stops visible).
func TestFastPathMatchesReferenceAlg3(t *testing.T) {
	for _, seed := range []uint64{2, 7} {
		for _, k := range []int{1, 2, 4} {
			in := mediumInstance(t, seed, 2e4)
			in.Delta = 15
			in.K = k
			ref, err := (&Algorithm3{Reference: true}).Plan(in)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 8} {
				fast, err := (&Algorithm3{Workers: workers}).Plan(in)
				if err != nil {
					t.Fatal(err)
				}
				assertPlansIdentical(t, "algorithm3-fast", workers, ref, fast)
			}
		}
	}
}

// TestFastPathMatchesReferenceLNS covers the destroy/repair loop, whose
// rebuilt states seed residuals before the lazy scan index is built.
func TestFastPathMatchesReferenceLNS(t *testing.T) {
	for _, seed := range []uint64{3, 8} {
		in := mediumInstance(t, seed, 2e4)
		in.K = 3
		ref, err := (&LNSPlanner{Rounds: 5, Reference: true}).Plan(in)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := (&LNSPlanner{Rounds: 5}).Plan(in)
		if err != nil {
			t.Fatal(err)
		}
		assertPlansIdentical(t, "lns-fast", 0, ref, fast)
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
		refState.Reference = true
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
		plan, err := (&BenchmarkPlanner{Reference: reference}).Plan(&instr)
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
		_, err := (&Algorithm2{Reference: reference}).Plan(in)
		return err
	})
	run("algorithm3", func(reference bool, reg *obs.Registry) error {
		in := mediumInstance(t, 4, 3e4)
		in.Delta = 15
		in.K = 3
		in.Obs = reg
		_, err := (&Algorithm3{Reference: reference}).Plan(in)
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
			Reference: reference,
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
		if _, err := (&Algorithm2{Reference: reference}).Plan(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlg2Reference(b *testing.B) { benchAlg2(b, true) }
func BenchmarkAlg2Fast(b *testing.B)      { benchAlg2(b, false) }
