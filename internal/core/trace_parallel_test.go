package core

import (
	"bytes"
	"testing"

	"uavdc/internal/obs"
	"uavdc/internal/trace"
)

// stripped exports the buffer's records with wall times stripped — the
// byte stream the determinism guarantee is stated over.
func stripped(t *testing.T, buf *trace.Buffer) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := trace.WriteJSONL(&b, buf.Snapshot(), true); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestTraceStreamInvariantAcrossWorkers: with detail tracing on (one event
// per candidate evaluation), the stripped trace stream must be
// byte-identical at Workers ∈ {1, 4, 8}. Workers record into per-shard
// buffers merged in worker-index order, which is exactly the serial
// candidate order — so any divergence means the parallel scan walked a
// different candidate sequence than the serial one.
func TestTraceStreamInvariantAcrossWorkers(t *testing.T) {
	workerCounts := []int{1, 4, 8}
	for _, seed := range []uint64{1, 4, 9} {
		traceFor := func(name string, plan func(workers int, rec obs.Recorder) error) map[int][]byte {
			t.Helper()
			streams := make(map[int][]byte, len(workerCounts))
			for _, w := range workerCounts {
				buf := trace.NewBuffer()
				buf.SetDetail(true)
				if err := plan(w, trace.With(obs.NewRegistry(), buf)); err != nil {
					t.Fatalf("%s seed=%d workers=%d: %v", name, seed, w, err)
				}
				if buf.Len() == 0 {
					t.Fatalf("%s seed=%d workers=%d: empty trace", name, seed, w)
				}
				streams[w] = stripped(t, buf)
			}
			return streams
		}
		check := func(name string, streams map[int][]byte) {
			t.Helper()
			base := streams[workerCounts[0]]
			for _, w := range workerCounts[1:] {
				if !bytes.Equal(base, streams[w]) {
					t.Errorf("%s seed=%d: stripped trace stream diverges at workers=%d", name, seed, w)
				}
			}
		}

		check("algorithm2", traceFor("algorithm2", func(workers int, rec obs.Recorder) error {
			in := mediumInstance(t, seed, 1.5e4)
			in.Delta = 12 // enough candidates to clear the parallel threshold
			in.Obs = rec
			_, err := (&Algorithm2{Workers: workers}).Plan(in)
			return err
		}))
		check("algorithm3", traceFor("algorithm3", func(workers int, rec obs.Recorder) error {
			in := mediumInstance(t, seed, 1.5e4)
			in.Delta = 12
			in.K = 3
			in.Obs = rec
			_, err := (&Algorithm3{Workers: workers}).Plan(in)
			return err
		}))
	}
}

// TestTracingDoesNotChangePlans: planning with a live trace buffer (detail
// on) must produce byte-identical plans to planning untraced, for every
// planner in the library.
func TestTracingDoesNotChangePlans(t *testing.T) {
	in := mediumInstance(t, 2, 1.2e4)
	for _, pl := range []Planner{&Algorithm1{}, &Algorithm2{}, &Algorithm3{}, &BenchmarkPlanner{}, &BenchmarkCoverage{}, &LNSPlanner{}} {
		bare, err := pl.Plan(in)
		if err != nil {
			t.Fatalf("%s: %v", pl.Name(), err)
		}
		buf := trace.NewBuffer()
		buf.SetDetail(true)
		instr := *in
		instr.Obs = trace.With(obs.NewRegistry(), buf)
		traced, err := pl.Plan(&instr)
		if err != nil {
			t.Fatalf("%s traced: %v", pl.Name(), err)
		}
		assertPlansIdentical(t, pl.Name(), 0, bare, traced)
		if buf.Len() == 0 {
			t.Errorf("%s: no trace records emitted", pl.Name())
		}
	}
}
