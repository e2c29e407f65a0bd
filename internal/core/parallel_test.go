package core

import (
	"testing"

	"uavdc/internal/obs"
)

// TestParallelScanIdenticalToSerial: the worker-parallel candidate scan
// must produce byte-identical plans to the serial one, at every worker
// count, because candidates are merged under a strict total order.
func TestParallelScanIdenticalToSerial(t *testing.T) {
	for _, seed := range []uint64{1, 4, 9} {
		in := mediumInstance(t, seed, 1.5e4)
		in.Delta = 12 // enough candidates to clear the parallel threshold

		serial2, err := (&Algorithm2{}).Plan(in)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8} {
			par, err := (&Algorithm2{Workers: workers}).Plan(in)
			if err != nil {
				t.Fatal(err)
			}
			assertPlansIdentical(t, "algorithm2", workers, serial2, par)
		}

		in.K = 3
		serial3, err := (&Algorithm3{}).Plan(in)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 5} {
			par, err := (&Algorithm3{Workers: workers}).Plan(in)
			if err != nil {
				t.Fatal(err)
			}
			assertPlansIdentical(t, "algorithm3", workers, serial3, par)
		}
	}
}

func assertPlansIdentical(t *testing.T, name string, workers int, a, b *Plan) {
	t.Helper()
	if a.Collected() != b.Collected() {
		t.Fatalf("%s workers=%d: volume %v != %v", name, workers, a.Collected(), b.Collected())
	}
	if len(a.Stops) != len(b.Stops) {
		t.Fatalf("%s workers=%d: stops %d != %d", name, workers, len(a.Stops), len(b.Stops))
	}
	for i := range a.Stops {
		if a.Stops[i].Pos != b.Stops[i].Pos || a.Stops[i].Sojourn != b.Stops[i].Sojourn {
			t.Fatalf("%s workers=%d: stop %d differs: %+v vs %+v", name, workers, i, a.Stops[i], b.Stops[i])
		}
		if len(a.Stops[i].Collected) != len(b.Stops[i].Collected) {
			t.Fatalf("%s workers=%d: stop %d collections differ", name, workers, i)
		}
		for j := range a.Stops[i].Collected {
			if a.Stops[i].Collected[j] != b.Stops[i].Collected[j] {
				t.Fatalf("%s workers=%d: stop %d collection %d differs", name, workers, i, j)
			}
		}
	}
}

// TestCountersDeterministicAcrossWorkers: every obs counter total must be
// bit-identical at Workers ∈ {1, 2, 4, 8}. Each parallel worker records
// into its own shard, merged after the join, so any divergence means the
// parallel scan evaluated a different candidate set than the serial one —
// the counters are a correctness oracle for the parallelisation, not just
// a profiler.
func TestCountersDeterministicAcrossWorkers(t *testing.T) {
	workerCounts := []int{1, 2, 4, 8}
	for _, seed := range []uint64{1, 4, 9} {
		countersFor := func(name string, plan func(workers int, reg *obs.Registry) error) map[int]obs.Snapshot {
			t.Helper()
			snaps := make(map[int]obs.Snapshot, len(workerCounts))
			for _, w := range workerCounts {
				reg := obs.NewRegistry()
				if err := plan(w, reg); err != nil {
					t.Fatalf("%s seed=%d workers=%d: %v", name, seed, w, err)
				}
				snaps[w] = reg.Snapshot()
			}
			return snaps
		}
		check := func(name string, snaps map[int]obs.Snapshot) {
			t.Helper()
			base := snaps[1]
			if len(base.Counters) == 0 {
				t.Fatalf("%s seed=%d: serial run recorded no counters", name, seed)
			}
			if base.Counters[CounterCandidateEvals] == 0 {
				t.Fatalf("%s seed=%d: no candidate evaluations recorded", name, seed)
			}
			for _, w := range workerCounts[1:] {
				if !base.Equal(snaps[w]) {
					t.Errorf("%s seed=%d: counters diverge at workers=%d:\n%s",
						name, seed, w, base.Diff(snaps[w]))
				}
			}
		}

		check("algorithm2", countersFor("algorithm2", func(workers int, reg *obs.Registry) error {
			in := mediumInstance(t, seed, 1.5e4)
			in.Delta = 12 // enough candidates to clear the parallel threshold
			in.Obs = reg
			_, err := (&Algorithm2{Workers: workers}).Plan(in)
			return err
		}))
		check("algorithm3", countersFor("algorithm3", func(workers int, reg *obs.Registry) error {
			in := mediumInstance(t, seed, 1.5e4)
			in.Delta = 12
			in.K = 3
			in.Obs = reg
			_, err := (&Algorithm3{Workers: workers}).Plan(in)
			return err
		}))
	}
}

// TestInstrumentationDoesNotChangePlans: planning with a live Registry
// must produce byte-identical plans to planning uninstrumented.
func TestInstrumentationDoesNotChangePlans(t *testing.T) {
	in := mediumInstance(t, 2, 1.2e4)
	for _, pl := range []Planner{&Algorithm1{}, &Algorithm2{}, &Algorithm3{}, &BenchmarkPlanner{}, &BenchmarkCoverage{}, &LNSPlanner{}} {
		bare, err := pl.Plan(in)
		if err != nil {
			t.Fatalf("%s: %v", pl.Name(), err)
		}
		instr := *in
		instr.Obs = obs.NewRegistry()
		traced, err := pl.Plan(&instr)
		if err != nil {
			t.Fatalf("%s instrumented: %v", pl.Name(), err)
		}
		assertPlansIdentical(t, pl.Name(), 0, bare, traced)
	}
}

// TestParallelScanValid: race-condition smoke (run with -race in CI): many
// workers on a bigger instance still yield a valid plan.
func TestParallelScanValid(t *testing.T) {
	in := mediumInstance(t, 7, 2e4)
	in.Delta = 10
	for _, pl := range []Planner{&Algorithm2{Workers: 8}, &Algorithm3{Workers: 8}} {
		plan, err := pl.Plan(in)
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidatePlan(in.Net, in.Model, in.EffectiveCoverRadius(), plan); err != nil {
			t.Errorf("%s: %v", pl.Name(), err)
		}
	}
}
