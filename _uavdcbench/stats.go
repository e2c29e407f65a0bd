package main

import (
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := q * float64(len(s)-1)
	lo := int(h)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailWindow is the fewest requests a latency window holds, so that the
// window's 99th percentile has at least ten samples beyond it.
const tailWindow = 1000

// windowQuantiles splits the latencies, in send order, into consecutive
// windows (at most maxWindows, each of at least minLen requests unless
// there are fewer in all) and returns each window's q-quantile.
func windowQuantiles(lat []float64, q float64, maxWindows, minLen int) []float64 {
	w := max(1, min(maxWindows, len(lat)/minLen))
	k := len(lat) / w
	qs := make([]float64, w)
	for i := range qs {
		hi := (i + 1) * k
		if i == w-1 {
			hi = len(lat)
		}
		qs[i] = quantile(lat[i*k:hi], q)
	}
	return qs
}

// windowedP99 is the median of the 99th percentiles of at most ten
// windows of at least tailWindow requests. A single stall of the shared
// host moves one window's tail, not the reported figure.
func windowedP99(lat []float64) float64 { return median(windowQuantiles(lat, 0.99, 10, tailWindow)) }

// windowedP50 is the mean of the medians of twenty windows (of at least
// a hundred requests). On the 2-CPU host the benchmark was defined on,
// serve-hot's loopback round trip switched between two levels, about
// 120 and 190 µs, each held for seconds at a time, so the median of the
// whole run landed near one level or the other as the run's time split
// between them (it spread by a third of itself over ten runs); the mean
// of window medians moves in proportion to that split instead.
func windowedP50(lat []float64) float64 {
	ms := windowQuantiles(lat, 0.5, 20, 100)
	return sum(ms) / float64(len(ms))
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// heapSampler records the peak of the live-plus-unswept heap by reading
// runtime/metrics every few milliseconds; the read does not stop the
// world.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		sample := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stopMB stops the sampler and returns the peak in MB.
func (h *heapSampler) stopMB() float64 {
	close(h.stop)
	h.done.Wait()
	return float64(h.peak) / (1 << 20)
}
