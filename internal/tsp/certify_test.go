package tsp

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"uavdc/internal/geom"
	"uavdc/internal/obs"
	"uavdc/internal/trace"
)

// shapedPoints draws n points of one of four shapes: uniform in a square,
// collinear, snapped to a 5×5 grid (duplicates and collinear triples
// everywhere), or uniform points each placed twice.
func shapedPoints(rng *rand.Rand, n int, shape uint8) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		switch shape % 4 {
		case 0:
			pts[i] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		case 1:
			x := rng.Float64() * 100
			pts[i] = geom.Pt(x, 0.5*x+3)
		case 2:
			pts[i] = geom.Pt(float64(rng.Intn(5)), float64(rng.Intn(5)))
		case 3:
			if i%2 == 1 {
				pts[i] = pts[i-1]
			} else {
				pts[i] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
			}
		}
	}
	return pts
}

// polishRun is one recorded polish: the tour it left, what it returned,
// its counters and its stripped trace stream.
type polishRun struct {
	tour      Tour
	saved     float64
	certified bool
	counters  obs.Snapshot
	trace     []byte
}

func recordPolish(t *testing.T, tour Tour, polish func(*Tour, obs.Recorder) (float64, bool)) polishRun {
	t.Helper()
	reg := obs.NewRegistry()
	buf := trace.NewBuffer()
	buf.SetDetail(true)
	run := polishRun{tour: tour.Clone()}
	run.saved, run.certified = polish(&run.tour, trace.With(reg, buf))
	run.counters = reg.Snapshot()
	var b bytes.Buffer
	if err := trace.WriteJSONL(&b, buf.Snapshot(), true); err != nil {
		t.Fatal(err)
	}
	run.trace = b.Bytes()
	return run
}

// checkAfterRemove removes position p from tour, re-polishes it with
// ImproveAfterRemove and with a full ImproveCertified, and demands the
// two agree bit for bit. For a certified tour large enough for the O(n)
// check it also demands that the check finds an improving move exactly
// when the full polish moves something. It returns the re-polished tour
// and its certificate.
func checkAfterRemove(t *testing.T, tour Tour, m Metric, p int, certified bool) (Tour, bool) {
	t.Helper()
	pruned, _ := Remove(tour, tour.Order[p], m)
	fast := recordPolish(t, pruned, func(tr *Tour, r obs.Recorder) (float64, bool) {
		return ImproveAfterRemove(tr, m, p, certified, r)
	})
	full := recordPolish(t, pruned, func(tr *Tour, r obs.Recorder) (float64, bool) {
		return ImproveCertified(tr, m, r)
	})
	if certified && pruned.Len() >= improveCertMin {
		moved := full.counters.Counters[CounterTwoOptMoves]+full.counters.Counters[CounterOrOptMoves] > 0
		if got := improvesAfterRemove(pruned.Order, m, p); got != moved {
			t.Fatalf("n=%d p=%d: check reports an improving move = %v, full Improve moved = %v", pruned.Len(), p, got, moved)
		}
	}
	if !slices.Equal(fast.tour.Order, full.tour.Order) {
		t.Fatalf("n=%d p=%d: tours differ:\n fast %v\n full %v", pruned.Len(), p, fast.tour.Order, full.tour.Order)
	}
	if math.Float64bits(fast.saved) != math.Float64bits(full.saved) || fast.certified != full.certified {
		t.Fatalf("n=%d p=%d: returned (%v, %v), full Improve (%v, %v)", pruned.Len(), p, fast.saved, fast.certified, full.saved, full.certified)
	}
	if !fast.counters.Equal(full.counters) {
		t.Fatalf("n=%d p=%d: counters differ:\n%s", pruned.Len(), p, full.counters.Diff(fast.counters))
	}
	if !bytes.Equal(fast.trace, full.trace) {
		t.Fatalf("n=%d p=%d: stripped traces differ:\n fast %s\n full %s", pruned.Len(), p, fast.trace, full.trace)
	}
	return fast.tour, fast.certified
}

// FuzzImproveAfterRemove is the property behind the removal certificate:
// starting from a tour polished to a certified fixed point, remove items
// one at a time down to a few items — the first at the fuzzed position,
// the rest at random, often the first or last position so the new edge
// lands on the wrap — and re-polish after each removal exactly as the
// baseline planner's prune loop does. Every step must match a full Improve
// bit for bit (see checkAfterRemove).
func FuzzImproveAfterRemove(f *testing.F) {
	for shape := uint8(0); shape < 4; shape++ {
		f.Add(int64(shape), uint8(40), shape, uint8(0))
		f.Add(int64(10+shape), uint8(60), shape, uint8(255))
		f.Add(int64(20+shape), uint8(3), shape, uint8(7))
		f.Add(int64(30+shape), uint8(20), shape, uint8(100))
	}
	f.Fuzz(func(t *testing.T, seed int64, rawN, shape, rawP uint8) {
		n := 9 + int(rawN)%56
		rng := rand.New(rand.NewSource(seed))
		pts := shapedPoints(rng, n, shape)
		m := MemoMetric(n, euclid(pts))
		tour := NearestNeighbor(allItems(n), m)
		certified := false
		for round := 0; round < 20 && !certified; round++ {
			_, certified = ImproveCertified(&tour, m)
		}
		if !certified {
			t.Skip("polish did not reach a certified fixed point")
		}
		p := int(rawP) % n
		if rawP == 255 {
			p = n - 1
		}
		for tour.Len() > 4 {
			tour, certified = checkAfterRemove(t, tour, m, p, certified)
			switch k := tour.Len(); rng.Intn(4) {
			case 0:
				p = 0
			case 1:
				p = k - 1
			default:
				p = rng.Intn(k)
			}
		}
	})
}

// capRing is a fixture on which Improve stops at its 8-iteration cap with
// improving moves left: 80 copies of a three-point gadget around a ring,
// each needing an Or-opt relocation that 2-opt cannot make, while one
// Improve iteration makes at most six Or-opt moves.
func capRing() []geom.Point {
	rng := rand.New(rand.NewSource(145))
	gadget := make([]geom.Point, 3+rng.Intn(3))
	for i := range gadget {
		gadget[i] = geom.Pt(1+8*rng.Float64(), -3+6*rng.Float64())
	}
	const copies = 80
	radius := 10 * copies / (2 * math.Pi)
	var pts []geom.Point
	for c := 0; c < copies; c++ {
		for _, g := range gadget {
			a := (10*float64(c) + g.X) / radius
			r := radius + g.Y
			pts = append(pts, geom.Pt(r*math.Cos(a), r*math.Sin(a)))
		}
	}
	return pts
}

// TestImproveAfterRemoveUncertified: a tour Improve left at its iteration
// cap is not certified, and ImproveAfterRemove must then take the full
// path. The O(n) check alone would be wrong here — it finds no improving
// move around some removal while the full polish still moves — so the
// test also demands such a removal exists.
func TestImproveAfterRemoveUncertified(t *testing.T) {
	pts := capRing()
	n := len(pts)
	m := MemoMetric(n, euclid(pts))
	tour := Tour{Order: allItems(n)}
	reg := obs.NewRegistry()
	if _, certified := ImproveCertified(&tour, m, reg); certified {
		t.Fatal("fixture no longer reaches Improve's iteration cap")
	}
	if got := reg.Snapshot().Counters[CounterOrOptPasses]; got < 8 {
		t.Fatalf("fixture ran %d Or-opt passes, want at least one per capped iteration", got)
	}
	checkWouldMiss := false
	for p := 0; p < n; p += 11 {
		pruned, _ := Remove(tour, tour.Order[p], m)
		if !improvesAfterRemove(pruned.Order, m, p) {
			moved := pruned.Clone()
			if ImproveCertified(&moved, m); !slices.Equal(moved.Order, pruned.Order) {
				checkWouldMiss = true
			}
		}
		checkAfterRemove(t, tour, m, p, false)
	}
	if !checkWouldMiss {
		t.Error("no removal where the O(n) check alone misses a move on the uncertified tour; the fixture shows nothing")
	}
}

// TestImproveAfterRemoveUnchanged: with nothing removed (p < 0), a
// certified tour re-polishes as a zero-move Improve, and a small tour
// always takes the full path.
func TestImproveAfterRemoveUnchanged(t *testing.T) {
	for _, n := range []int{3, improveCertMin - 1, improveCertMin, 40} {
		pts := randPts(n, int64(n))
		m := euclid(pts)
		tour := NearestNeighbor(allItems(n), m)
		certified := false
		for round := 0; round < 20 && !certified; round++ {
			_, certified = ImproveCertified(&tour, m)
		}
		if !certified {
			t.Fatalf("n=%d: polish did not reach a certified fixed point", n)
		}
		fast := recordPolish(t, tour, func(tr *Tour, r obs.Recorder) (float64, bool) {
			return ImproveAfterRemove(tr, m, -1, true, r)
		})
		full := recordPolish(t, tour, func(tr *Tour, r obs.Recorder) (float64, bool) {
			return ImproveCertified(tr, m, r)
		})
		if !slices.Equal(fast.tour.Order, tour.Order) || fast.saved != 0 || !fast.certified {
			t.Errorf("n=%d: unchanged certified tour re-polished to %v (saved %v, certified %v)", n, fast.tour.Order, fast.saved, fast.certified)
		}
		if !fast.counters.Equal(full.counters) || !bytes.Equal(fast.trace, full.trace) {
			t.Errorf("n=%d: zero-move record differs from full Improve:\n%s\n fast %s\n full %s", n, full.counters.Diff(fast.counters), fast.trace, full.trace)
		}
	}
}
