package serve

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"uavdc"
	"uavdc/internal/oplog"
)

// failMarker selects the request whose planner flight fails in the
// golden sequence.
const failMarker = 99

// oplogSequence drives the fixed request sequence the op-log golden
// locks: miss, hit, evicting miss, bad request, planner error, and a
// final hit — sequentially, so cache-length and eviction fields are
// deterministic.
func oplogSequence(t *testing.T, s *Server) {
	t.Helper()
	ctx := context.Background()
	ra, rb, rc := testRequest(1), testRequest(2), testRequest(3)
	rc.Options.K = failMarker
	bad := testRequest(1)
	bad.Schema = "nope/9"

	wantStatus := func(out Outcome, want int) {
		t.Helper()
		if out.Status != want {
			t.Fatalf("sequence status = %d, want %d (%s)", out.Status, want, out.Body)
		}
	}
	wantStatus(s.Do(ctx, ra), 200)  // miss
	wantStatus(s.Do(ctx, ra), 200)  // hit
	wantStatus(s.Do(ctx, rb), 200)  // miss, evicts ra (CacheSize 1)
	wantStatus(s.Do(ctx, bad), 400) // error, no key
	wantStatus(s.Do(ctx, rc), 500)  // planner error, not cached
	wantStatus(s.Do(ctx, rb), 200)  // hit
}

// stubPlanner is the deterministic test planner for op-log tests: the
// body is the key, and the failMarker request fails.
func stubPlanner(key string, r Request, tr *uavdc.Trace) ([]byte, error) {
	if r.Options.K == failMarker {
		return nil, fmt.Errorf("marked to fail")
	}
	return []byte(key + "\n"), nil
}

// TestOpLogGoldenAcrossGOMAXPROCS is the determinism acceptance gate:
// the stripped op-log of a fixed sequential request sequence is
// byte-identical at GOMAXPROCS 1, 4, and 8, and locked by a golden.
func TestOpLogGoldenAcrossGOMAXPROCS(t *testing.T) {
	streams := map[int][]byte{}
	for _, procs := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("gomaxprocs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			var buf bytes.Buffer
			s := New(Config{CacheSize: 1, OpLog: &buf, OpLogStrip: true, planFn: stubPlanner})
			oplogSequence(t, s)
			if err := s.Close(context.Background()); err != nil {
				t.Fatal(err)
			}
			streams[procs] = append([]byte(nil), buf.Bytes()...)
		})
	}
	if !bytes.Equal(streams[1], streams[4]) || !bytes.Equal(streams[1], streams[8]) {
		t.Fatalf("stripped op-log differs across GOMAXPROCS:\n1:\n%s4:\n%s8:\n%s",
			streams[1], streams[4], streams[8])
	}
	goldenCompare(t, "oplog.golden", streams[1])
}

// TestOpLogRecordsSemantics decodes the stream of the golden sequence
// and checks each record's disposition, status, cache length, and
// eviction attribution.
func TestOpLogRecordsSemantics(t *testing.T) {
	var buf bytes.Buffer
	s := New(Config{CacheSize: 1, OpLog: &buf, planFn: stubPlanner})
	oplogSequence(t, s)
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	hdr, recs, err := oplog.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Strip {
		t.Fatal("unstripped stream marked stripped")
	}
	want := []struct {
		disp     string
		status   int
		cacheLen int
		evicted  int
		hasKey   bool
	}{
		{oplog.DispMiss, 200, 1, 0, true},
		{oplog.DispHit, 200, 1, 0, true},
		{oplog.DispMiss, 200, 1, 1, true}, // rb evicted ra
		{oplog.DispError, 400, 1, 0, false},
		{oplog.DispError, 500, 1, 0, true}, // planner failure, nothing cached
		{oplog.DispHit, 200, 1, 0, true},
	}
	if len(recs) != len(want) {
		t.Fatalf("%d records, want %d", len(recs), len(want))
	}
	for i, w := range want {
		r := recs[i]
		if r.Seq != int64(i+1) {
			t.Errorf("record %d: seq %d, want %d", i, r.Seq, i+1)
		}
		if r.Disp != w.disp || r.Status != w.status || r.CacheLen != w.cacheLen || r.Evicted != w.evicted {
			t.Errorf("record %d = %+v, want disp=%s status=%d cache=%d evicted=%d",
				i, r, w.disp, w.status, w.cacheLen, w.evicted)
		}
		if (r.Key != "") != w.hasKey {
			t.Errorf("record %d: key presence %v, want %v", i, r.Key != "", w.hasKey)
		}
		if r.ElapsedS <= 0 {
			t.Errorf("record %d: elapsed %g, want > 0 in an unstripped stream", i, r.ElapsedS)
		}
		if (w.disp == oplog.DispMiss || w.status == 500) && r.Worker == 0 {
			t.Errorf("record %d: flight record lost its worker id", i)
		}
		if w.disp == oplog.DispHit && r.Worker != 0 {
			t.Errorf("record %d: hit carries worker %d, want 0", i, r.Worker)
		}
	}
}

// TestOpLogStalledWriterNeverBlocksDo is the backpressure acceptance
// gate: with the op-log sink wedged, requests complete promptly and the
// only op-log movement is serve.oplog.dropped (plus the records that fit
// the buffer before the stall).
func TestOpLogStalledWriterNeverBlocksDo(t *testing.T) {
	sink := &gatedSink{gate: make(chan struct{})}
	s := New(Config{OpLog: sink, OpLogBuffer: 2, planFn: stubPlanner})

	before := s.Snapshot().Counters
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			if out := s.Do(context.Background(), testRequest(uint64(i+1))); out.Status != 200 {
				t.Errorf("request %d: status %d", i, out.Status)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Server.Do blocked behind the stalled op-log writer")
	}
	delta := counterDelta(before, s.Snapshot().Counters)
	if delta[CounterOplogRecords] != 2 {
		t.Errorf("Δserve.oplog.records = %d, want the buffer capacity 2", delta[CounterOplogRecords])
	}
	if delta[CounterOplogDropped] != 8 {
		t.Errorf("Δserve.oplog.dropped = %d, want 8", delta[CounterOplogDropped])
	}

	close(sink.gate)
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, recs, err := oplog.Read(bytes.NewReader(sink.bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("drained %d records, want the 2 accepted", len(recs))
	}
}

// gatedSink blocks every Write until the gate opens, then appends to an
// internal buffer — a stalled op-log sink.
type gatedSink struct {
	gate chan struct{}
	mu   sync.Mutex
	buf  bytes.Buffer
}

func (g *gatedSink) Write(p []byte) (int, error) {
	<-g.gate
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.buf.Write(p)
}

func (g *gatedSink) bytes() []byte {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]byte(nil), g.buf.Bytes()...)
}

// TestOpLogRingServesRecentRecords: the in-memory ring behind
// /debug/oplog retains records independent of any configured sink and
// filters by sequence number.
func TestOpLogRingServesRecentRecords(t *testing.T) {
	s := New(Config{CacheSize: 1, planFn: stubPlanner}) // no OpLog sink
	oplogSequence(t, s)
	defer s.Close(context.Background())

	recs := s.OpLogSince(0)
	if len(recs) != 6 {
		t.Fatalf("ring holds %d records, want 6", len(recs))
	}
	for i, r := range recs {
		if r.Seq != int64(i+1) {
			t.Fatalf("ring order broken: record %d has seq %d", i, r.Seq)
		}
	}
	tail := s.OpLogSince(4)
	if len(tail) != 2 || tail[0].Seq != 5 || tail[1].Seq != 6 {
		t.Fatalf("OpLogSince(4) = %+v, want seqs 5,6", tail)
	}
	if n := s.Snapshot().Counters[CounterOplogRecords]; n != 0 {
		t.Errorf("serve.oplog.records = %d without a sink, want 0", n)
	}
}

// TestOpLogSeqJoinsTraceStream: the op-log record's seq appears as the
// serve/request span's "req" attribute, joining the two streams.
func TestOpLogSeqJoinsTraceStream(t *testing.T) {
	var traces bytes.Buffer
	s := New(Config{TraceWriter: &traces, StripTimes: true, planFn: stubPlanner})
	s.Do(context.Background(), testRequest(1))
	s.Do(context.Background(), testRequest(1))
	// The worker streams the plan trace after answering the request;
	// Close waits for it before the buffer is read.
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	recs := s.OpLogSince(0)
	if len(recs) != 2 {
		t.Fatalf("%d op-log records, want 2", len(recs))
	}
	out := traces.String()
	for _, r := range recs {
		if want := fmt.Sprintf(`"req":%d`, r.Seq); !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("trace stream lacks %s for op-log record %d:\n%s", want, r.Seq, out)
		}
	}
}
