package core

import (
	"math"
	"math/rand"
	"testing"

	"uavdc/internal/geom"
	"uavdc/internal/tsp"
)

// FuzzInsertionCache holds the slot cache to tsp.BestInsertion bit for bit.
// Points sit on a small integer lattice, so duplicates and collinear runs
// are common and exact delta ties between edges occur. Each op byte drives
// one step: an insertion at a candidate's priced slot, at the wrap edge, at
// another candidate's cached slot (the replaced-edge fallback) or at the
// front; a no-change step (an in-place upgrade); or a reorder standing in
// for an Improve move. Before every step each candidate the step prices —
// some steps skip half of them, so entries go stale — must return the
// reference slot and delta exactly.
func FuzzInsertionCache(f *testing.F) {
	f.Add(int64(1), uint8(12), []byte{0, 0, 1, 0, 3, 0, 2, 0, 0, 4, 0, 1, 0})
	f.Add(int64(2), uint8(30), []byte{0, 3, 3, 0, 0, 0x10, 0, 0x14, 0, 2, 0, 0, 5, 0, 0, 0, 0x13})
	f.Add(int64(3), uint8(5), []byte{3, 3, 3, 3, 3})
	f.Add(int64(4), uint8(40), []byte{0, 0, 0, 0, 0x14, 0x14, 0, 0, 0x10, 0, 6, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, seed int64, size uint8, ops []byte) {
		n := 3 + int(size)%48
		rng := rand.New(rand.NewSource(seed))
		pts := make([]geom.Point, n)
		for i := range pts {
			switch {
			case i > 0 && rng.Intn(4) == 0:
				pts[i] = pts[rng.Intn(i)] // duplicate position
			case rng.Intn(3) == 0:
				x := float64(rng.Intn(6))
				pts[i] = geom.Pt(x, 2*x) // collinear run
			default:
				pts[i] = geom.Pt(float64(rng.Intn(6)), float64(rng.Intn(6)))
			}
		}
		m := func(i, j int) float64 { return pts[i].Dist(pts[j]) }
		tour := tsp.Tour{Order: []int{0}}
		inTour := make([]bool, n)
		inTour[0] = true
		var sc insertionScratch
		var sl slotCache
		sl.size(n)
		if len(ops) > 64 {
			ops = ops[:64]
		}
		for step, op := range ops {
			sc.reset(tour.Len(), func(i int) geom.Point { return pts[tour.Order[i]] })
			var outside []int
			for c := 1; c < n; c++ {
				if inTour[c] {
					continue
				}
				outside = append(outside, c)
				if op&0x10 != 0 && c%2 == 1 {
					continue // left unpriced: its entry goes stale
				}
				pos, delta := sl.best(c, pts[c], &sc)
				wantPos, wantDelta := tsp.BestInsertion(tour, c, m)
				if pos != wantPos || math.Float64bits(delta) != math.Float64bits(wantDelta) {
					t.Fatalf("step %d, tour %v, candidate %d: cache (%d, %v), BestInsertion (%d, %v)",
						step, tour.Order, c, pos, delta, wantPos, wantDelta)
				}
			}
			if len(outside) == 0 {
				return
			}
			v := outside[int(op>>5)%len(outside)]
			insert := func(pos int) {
				tour = tsp.Insert(tour, v, pos)
				inTour[v] = true
				sl.changed(pos)
			}
			switch (op & 0x0f) % 7 {
			case 0, 1: // insert at v's own priced slot
				pos, _ := tsp.BestInsertion(tour, v, m)
				insert(pos)
			case 2: // upgrade: the tour is unchanged
			case 3: // insert at the last position, replacing the wrap edge
				insert(tour.Len())
			case 4: // insert at another candidate's cached slot
				other := outside[(int(op>>5)+1)%len(outside)]
				if sl.at[other] == sl.ver {
					insert(int(sl.pos[other]))
				} else {
					insert(tour.Len())
				}
			case 5: // insert at the front, which rotates every edge index
				insert(0)
			case 6: // an Improve-like move: reverse a segment or rotate
				if k := tour.Len(); k >= 2 {
					i := int(op>>5) % k
					j := (i + 1 + int(op>>4)%k) % k
					if i > j {
						i, j = j, i
					}
					for ; i < j; i, j = i+1, j-1 {
						tour.Order[i], tour.Order[j] = tour.Order[j], tour.Order[i]
					}
					sl.changed(0)
				}
			}
		}
	})
}
