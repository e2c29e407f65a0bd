package tsp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"uavdc/internal/geom"
)

// TestQuickTwoOptNeverWorsens: for arbitrary seeds and sizes, 2-opt must
// not increase tour cost, must preserve the visited set, and the reported
// saving must equal the observed difference.
func TestQuickTwoOptNeverWorsens(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		n := 4 + int(rawN)%40
		pts := randPts(n, seed)
		m := euclid(pts)
		items := allItems(n)
		tour := NearestNeighbor(items, m)
		before := tour.Cost(m)
		saved := TwoOpt(&tour, m, 0)
		after := tour.Cost(m)
		if tour.Validate(items) != nil {
			return false
		}
		if after > before+1e-9 {
			return false
		}
		return abs(before-saved-after) < 1e-6*(1+before)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickInsertRemoveInverse: removing a freshly inserted item restores
// the original cost exactly.
func TestQuickInsertRemoveInverse(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		n := 3 + int(rawN)%20
		pts := randPts(n+1, seed)
		m := euclid(pts)
		tour := NearestNeighbor(allItems(n), m)
		base := tour.Cost(m)
		pos, delta := BestInsertion(tour, n, m)
		grown := Insert(tour, n, pos)
		shrunk, dec := Remove(grown, n, m)
		if abs(grown.Cost(m)-(base+delta)) > 1e-9 {
			return false
		}
		if abs(dec-delta) > 1e-9 {
			return false
		}
		return abs(shrunk.Cost(m)-base) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickChristofidesSandwich: MST ≤ tour ≤ 2·MST on arbitrary Euclidean
// instances.
func TestQuickChristofidesSandwich(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		n := 3 + int(rawN)%30
		pts := randPts(n, seed)
		m := euclid(pts)
		items := allItems(n)
		tour, err := Christofides(items, m)
		if err != nil {
			return false
		}
		mst, err := MSTLowerBound(items, m)
		if err != nil {
			return false
		}
		c := tour.Cost(m)
		return c >= mst-1e-6 && c <= 2*mst+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickTourCostRotationInvariant: the cycle cost is invariant under
// rotation of the visiting order.
func TestQuickTourCostRotationInvariant(t *testing.T) {
	f := func(seed int64, rawN, rawShift uint8) bool {
		n := 3 + int(rawN)%20
		pts := randPts(n, seed)
		m := euclid(pts)
		tour := NearestNeighbor(allItems(n), m)
		want := tour.Cost(m)
		rot := tour.Clone()
		rot.RotateTo(tour.Order[int(rawShift)%n])
		return abs(rot.Cost(m)-want) < 1e-9*(1+want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickClusteredInstances exercises Christofides on degenerate layouts
// (many coincident points), where zero-length edges stress the matching
// and shortcut steps.
func TestQuickClusteredInstances(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var pts []geom.Point
		for c := 0; c < 3; c++ {
			p := geom.Pt(rng.Float64()*100, rng.Float64()*100)
			for i := 0; i < 4; i++ {
				pts = append(pts, p) // exact duplicates
			}
		}
		m := euclid(pts)
		items := allItems(len(pts))
		tour, err := Christofides(items, m)
		if err != nil {
			return false
		}
		return tour.Validate(items) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
