package orienteering

import (
	"math"
	"slices"
	"testing"

	"uavdc/internal/tsp"
)

// TestLocalSearchMatchesReference holds LocalSearch, whose drop+refill
// move re-polishes each trial removal with tsp.ImproveAfterRemove, to
// localSearchReference, which re-polishes with a full tsp.Improve: the
// same tour, reward and cost bit for bit, on random problems from tight
// to generous budgets.
func TestLocalSearchMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		n := 10 + int(seed%4)*15
		for _, frac := range []float64{0.2, 0.5, 1} {
			p, _ := randomProblem(n, 0, seed)
			order := make([]int, n)
			for i := range order {
				order[i] = i
			}
			p.Budget = frac * tsp.NearestNeighbor(order, p.Cost).Cost(p.Cost)
			start, err := GreedyRatio(p)
			if err != nil {
				t.Fatal(err)
			}
			got, want := LocalSearch(p, start, 0), localSearchReference(p, start, 0)
			if !slices.Equal(got.Tour.Order, want.Tour.Order) ||
				math.Float64bits(got.Reward) != math.Float64bits(want.Reward) ||
				math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
				t.Fatalf("seed %d n %d budget %v×: LocalSearch %+v, reference %+v", seed, n, frac, got, want)
			}
		}
	}
}

// localSearchReference is LocalSearch with every re-polish a full
// tsp.Improve.
func localSearchReference(p *Problem, start Solution, maxIters int) Solution {
	cur := start
	if maxIters <= 0 {
		maxIters = 64
	}
	for iter := 0; iter < maxIters; iter++ {
		improved := false
		// Polish ordering first so budget headroom is maximal.
		t := cur.Tour.Clone()
		if tsp.Improve(&t, p.Cost) > 1e-12 {
			cur = p.solutionFor(t)
		}

		in := make([]bool, p.N)
		for _, v := range cur.Tour.Order {
			in[v] = true
		}

		// Move 1: add.
		for {
			bestV, bestPos, bestDelta, bestRatio := -1, 0, 0.0, -1.0
			for v := 0; v < p.N; v++ {
				if in[v] || p.Reward(v) <= 0 {
					continue
				}
				pos, delta := tsp.BestInsertion(cur.Tour, v, p.Cost)
				if cur.Cost+delta > p.Budget+1e-12 {
					continue
				}
				ratio := math.Inf(1)
				if delta > 1e-12 {
					ratio = p.Reward(v) / delta
				}
				if ratio > bestRatio {
					bestV, bestPos, bestDelta, bestRatio = v, pos, delta, ratio
				}
			}
			if bestV < 0 {
				break
			}
			cur.Tour = tsp.Insert(cur.Tour, bestV, bestPos)
			cur.Cost += bestDelta
			cur.Reward += p.Reward(bestV)
			in[bestV] = true
			improved = true
		}

		// Move 2: single swap in/out.
		swapDone := false
		for _, out := range append([]int(nil), cur.Tour.Order...) {
			if out == p.Depot {
				continue
			}
			removed, dec := tsp.Remove(cur.Tour, out, p.Cost)
			baseCost := cur.Cost - dec
			for v := 0; v < p.N && !swapDone; v++ {
				if in[v] || p.Reward(v) <= p.Reward(out) {
					continue
				}
				pos, inc := tsp.BestInsertion(removed, v, p.Cost)
				if baseCost+inc <= p.Budget+1e-12 {
					cur.Tour = tsp.Insert(removed, v, pos)
					cur.Cost = baseCost + inc
					cur.Reward += p.Reward(v) - p.Reward(out)
					in[v], in[out] = true, false
					improved, swapDone = true, true
				}
			}
			if swapDone {
				break
			}
		}

		// Move 3: drop + refill. Evict one node and greedily repack the
		// freed budget; keep the result only when total reward rises.
		if !improved {
			for _, out := range append([]int(nil), cur.Tour.Order...) {
				if out == p.Depot {
					continue
				}
				trial, _ := tsp.Remove(cur.Tour, out, p.Cost)
				tsp.Improve(&trial, p.Cost)
				cand := p.solutionFor(trial)
				cand = greedyFill(p, cand, out)
				if cand.Reward > cur.Reward+1e-9 {
					cur = cand
					improved = true
					break
				}
			}
		}

		if !improved {
			break
		}
	}
	// Defensive: never return an infeasible or worse-than-start solution.
	if p.Feasible(cur.Tour) != nil || cur.Reward < start.Reward {
		return start
	}
	return cur
}
