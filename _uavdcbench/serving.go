package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"uavdc/internal/obs"
	"uavdc/internal/serve"
	"uavdc/internal/trace"
)

// rig is an in-process serve.Server behind a loopback HTTP listener,
// and the client that loads it. Both sides get runtime.NumCPU()
// workers or connections.
type rig struct {
	srv    *serve.Server
	reg    *obs.Registry
	oplog  *bytes.Buffer // traced rigs only; complete once close returns
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
	conns  int
}

// startRig starts a server with the default cache. A traced rig also
// writes the server's op-log, with room for oplogRecords records so
// that none is dropped.
func startRig(traced bool, oplogRecords int) (*rig, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	n := runtime.NumCPU()
	r := &rig{reg: obs.NewRegistry(), served: make(chan error, 1), conns: n,
		url: "http://" + ln.Addr().String() + "/plan"}
	cfg := serve.Config{Workers: n, Obs: r.reg}
	if traced {
		r.oplog = &bytes.Buffer{}
		cfg.OpLog, cfg.OpLogBuffer = r.oplog, oplogRecords
	}
	r.srv = serve.New(cfg)
	r.hs = &http.Server{Handler: r.srv.Handler()}
	go func() { r.served <- r.hs.Serve(ln) }()
	r.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true}}
	return r, nil
}

// close shuts the listener and the server down and waits for both.
func (r *rig) close() error {
	r.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := r.hs.Shutdown(ctx)
	if serr := <-r.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, r.srv.Close(ctx))
}

// reply is one /plan response. body aliases the buffer post read it
// into.
type reply struct {
	status    int
	body      []byte
	cache     string
	elapsedUs float64
}

// post sends one request and reads the reply into body, which each
// client reuses so that the load generator adds little garbage to the
// server's heap.
func (r *rig) post(payload []byte, body *bytes.Buffer) (reply, error) {
	resp, err := r.client.Post(r.url, "application/json", bytes.NewReader(payload))
	if err != nil {
		return reply{}, err
	}
	body.Reset()
	_, err = body.ReadFrom(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return reply{}, err
	}
	el, err := strconv.ParseFloat(resp.Header.Get("Uavdc-Elapsed-Us"), 64)
	if err != nil {
		return reply{}, fmt.Errorf("Uavdc-Elapsed-Us header: %w", err)
	}
	return reply{status: resp.StatusCode, body: body.Bytes(), cache: resp.Header.Get("Uavdc-Cache"), elapsedUs: el}, nil
}

// traffic is the request sequence of a serve workload.
type traffic struct {
	payloads [][]byte // request bodies
	order    []int    // request i sends payloads[order[i]]
	wantDisp string   // the cache disposition every timed request must get
	// want holds the expected response per payload (serve-hot); nil means
	// the bodies of the sampled requests are kept for checking afterwards
	// (serve-miss).
	want   [][]byte
	sample map[int]bool
	kept   [][]byte

	// Per request: client round trip and the server's elapsed header,
	// in seconds, and whether a 200 reply passed its checks.
	rtt, elapsed []float64
	ok           []bool
}

func newTraffic(payloads [][]byte, order []int, wantDisp string) *traffic {
	n := len(order)
	return &traffic{payloads: payloads, order: order, wantDisp: wantDisp,
		kept: make([][]byte, n), rtt: make([]float64, n), elapsed: make([]float64, n), ok: make([]bool, n)}
}

// send posts request i and checks its reply; body is the client's
// read buffer.
func (t *traffic) send(r *rig, i int, tr *trace.Buffer, body *bytes.Buffer, chk *checker) {
	end := func(...trace.Attr) {}
	if tr != nil {
		end = tr.Begin(benchSpanPrefix+"http.post", trace.Int("req", i))
	}
	start := time.Now()
	rep, err := r.post(t.payloads[t.order[i]], body)
	t.rtt[i] = time.Since(start).Seconds()
	end()
	chk.attempt()
	switch {
	case err != nil:
		chk.failOp("request %d: %v", i, err)
	case rep.status != http.StatusOK:
		chk.refuse()
	case rep.cache != t.wantDisp:
		chk.failOp("request %d: cache disposition %q, want %q", i, rep.cache, t.wantDisp)
	case t.want != nil && !bytes.Equal(rep.body, t.want[t.order[i]]):
		chk.failOp("request %d: body differs from the expected plan", i)
	default:
		t.elapsed[i], t.ok[i] = rep.elapsedUs/1e6, true
		if t.sample[i] {
			t.kept[i] = bytes.Clone(rep.body)
		}
	}
}

// closedLoop sends requests [from, to) from one client per connection,
// each sending its next request when the previous reply is read, and
// returns the wall seconds taken.
func closedLoop(r *rig, t *traffic, from, to int, bufs []*trace.Buffer, chk *checker) float64 {
	var next atomic.Int64
	next.Store(int64(from))
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < r.conns; c++ {
		wg.Add(1)
		go func(tr *trace.Buffer) {
			defer wg.Done()
			var body bytes.Buffer
			for i := int(next.Add(1) - 1); i < to; i = int(next.Add(1) - 1) {
				t.send(r, i, tr, &body, chk)
			}
		}(pick(bufs, c))
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

// openLoop sends requests [from, to) on a fixed schedule of rate per
// second, whatever the replies do. Requests wait for a free connection
// in arrival order; each latency runs from the request's due time to
// its reply. late holds how far behind schedule each request was handed
// to a connection by the sender.
func openLoop(r *rig, t *traffic, from, to int, rate float64, bufs []*trace.Buffer, chk *checker) (lat, late []float64) {
	type job struct {
		i   int
		due time.Time
	}
	jobs := make(chan job, to-from) // sized to the number of sends: the sender never blocks
	lat = make([]float64, to-from)
	late = make([]float64, to-from)
	var wg sync.WaitGroup
	for c := 0; c < r.conns; c++ {
		wg.Add(1)
		go func(tr *trace.Buffer) {
			defer wg.Done()
			var body bytes.Buffer
			for j := range jobs {
				t.send(r, j.i, tr, &body, chk)
				lat[j.i-from] = time.Since(j.due).Seconds()
			}
		}(pick(bufs, c))
	}
	start := time.Now()
	for i := from; i < to; i++ {
		due := start.Add(time.Duration(float64(i-from) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late[i-from] = time.Since(due).Seconds()
		jobs <- job{i: i, due: due}
	}
	close(jobs)
	wg.Wait()
	return lat, late
}

func pick(bufs []*trace.Buffer, i int) *trace.Buffer {
	if bufs == nil {
		return nil
	}
	return bufs[i]
}

// counts returns the serve.* counters of the rig's registry.
func (r *rig) counts() map[string]int64 {
	c := r.reg.Snapshot().Counters
	out := map[string]int64{}
	for _, name := range servedCounters {
		out[name] = c[name]
	}
	return out
}

// servedCounters are the serve.* counts whose deltas must repeat exactly
// between two passes over the same traffic; all but the first,
// serve.requests, are reported.
var servedCounters = []string{serve.CounterRequests, serve.CounterHits, serve.CounterMisses,
	serve.CounterCoalesced, serve.CounterRejected, serve.CounterEvictions}

func delta(after, before map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}
