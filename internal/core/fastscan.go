package core

import (
	"math"
	"sync"

	"uavdc/internal/geom"
	"uavdc/internal/hover"
	"uavdc/internal/obs"
	"uavdc/internal/trace"
	"uavdc/internal/units"
)

// parallelScanMin is the smallest id list scanBest fans across workers;
// shorter lists scan serially, since a goroutine per shard costs more than
// it saves.
const parallelScanMin = 256

// scanBest is the one best-candidate scan of Algorithms 2 and 3, the LNS
// repair loop and ReplanResidual (Eq. 13's arg-max ρ). It evaluates each
// id with eval and keeps the winner under better, the planner's strict
// total order. Every such order ranks a higher ratio first, so a candidate
// whose ratio is below the incumbent's is discarded without calling better
// (an indirect call per candidate measurably slowed Algorithm 2's cheap
// evaluations). With workers > 1 and a long enough list, ids are split into
// contiguous shards, one goroutine each, recording into trace.ShardObs
// shards merged in worker order, and the shard winners are merged under
// the same order — so the pick, counters and trace equal the serial scan's
// at any worker count. The fast path passes the residual-active list; the
// reference oracle passes every id from 1 to n−1 (referenceIDs).
func scanBest[C any](rec obs.Recorder, ids []int32, workers int, eval func(c int, so scanObs) (C, float64, bool), better func(C, float64, C, float64) bool) (C, bool) {
	type pick struct {
		cand  C
		ratio float64
		ok    bool
	}
	keep := func(best *pick, cand C, ratio float64) {
		if !best.ok || ratio >= best.ratio && better(cand, ratio, best.cand, best.ratio) {
			*best = pick{cand, ratio, true}
		}
	}
	scan := func(ids []int32, so scanObs) pick {
		var best pick
		for _, c := range ids {
			if cand, ratio, ok := eval(int(c), so); ok {
				keep(&best, cand, ratio)
			}
		}
		return best
	}
	if workers <= 1 || len(ids) < parallelScanMin {
		best := scan(ids, newScanObs(rec))
		return best.cand, best.ok
	}
	results := make([]pick, workers)
	shards := trace.ShardObs(rec, workers)
	var wg sync.WaitGroup
	chunk := (len(ids) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := min(w*chunk, len(ids))
		hi := min(lo+chunk, len(ids))
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w int, part []int32) {
			defer wg.Done()
			results[w] = scan(part, newScanObs(shards[w]))
		}(w, ids[lo:hi])
	}
	wg.Wait()
	trace.MergeObs(rec, shards)
	var best pick
	for _, r := range results {
		if r.ok {
			keep(&best, r.cand, r.ratio)
		}
	}
	return best.cand, best.ok
}

// referenceIDs is the reference oracle's scan list: every candidate id
// from 1 to n−1 (0 is the depot).
func referenceIDs(n int) []int32 {
	ids := make([]int32, 0, max(n-1, 0))
	for c := 1; c < n; c++ {
		ids = append(ids, int32(c))
	}
	return ids
}

// This file is the fast-path candidate machinery shared by the greedy
// planners (Algorithm 2/3, LNS repair, residual replanning). It rests on
// one exactness argument: a candidate location whose covered sensors are
// all fully drained has hover.ResidualDrain award exactly 0, and the
// reference scan discards such candidates unconditionally (they can never
// produce a positive-gain level either, because partialTake is bounded by
// the residuals). Skipping them without evaluation is therefore
// output-equivalent bit for bit — same plans, same accepted/pruned
// counters, same detail-event set for the candidates that are evaluated.
// The index below tracks exactly that set: locations still covering at
// least one sensor with residual > 0.
//
// Residuals only ever transition > 0 → == 0 exactly (acceptFull writes 0;
// acceptPartial subtracts amt ≤ residual and clamps at 0), so the cover
// counts are maintained by pure integer decrements — no float thresholds,
// no drift.

// scanIndex is the residual-active candidate index: an inverted
// sensor → covering-locations table plus a per-location count of covered
// sensors that still hold data. The active list is kept in ascending
// location-id order so fast scans visit candidates in exactly the
// reference scan's order (total-order tie-breaks and merged trace shards
// line up with the serial reference stream).
type scanIndex struct {
	locsOf [][]int32 // sensor id → candidate locations covering it
	cover  []int32   // location id → covered sensors with residual > 0
	active []int32   // ascending location ids with cover > 0 (may hold stale entries until compacted)
	stale  bool
}

// newScanIndex builds the index for the current residuals. skip, when
// non-nil, drops locations the caller will never evaluate (the replanner's
// excluded no-hover zones); skipped locations are neither indexed nor
// reported active. Location 0 (the depot) is never a candidate.
func newScanIndex(set *hover.Set, residual []units.Bits, skip func(c int) bool) *scanIndex {
	ix := &scanIndex{
		locsOf: make([][]int32, len(residual)),
		cover:  make([]int32, set.Len()),
	}
	for c := 1; c < set.Len(); c++ {
		if skip != nil && skip(c) {
			continue
		}
		for _, v := range set.Locs[c].Covered {
			ix.locsOf[v] = append(ix.locsOf[v], int32(c))
			if residual[v] > 0 {
				ix.cover[c]++
			}
		}
	}
	for c := 1; c < set.Len(); c++ {
		if ix.cover[c] > 0 {
			ix.active = append(ix.active, int32(c))
		}
	}
	return ix
}

// drained records that sensor v's residual just reached exactly zero,
// decrementing the cover count of every location that was counting on it.
func (ix *scanIndex) drained(v int) {
	for _, c := range ix.locsOf[v] {
		ix.cover[c]--
		if ix.cover[c] == 0 {
			ix.stale = true
		}
	}
}

// compact drops fully-drained entries from the active list and returns it,
// still in ascending location-id order.
func (ix *scanIndex) compact() []int32 {
	if !ix.stale {
		return ix.active
	}
	kept := ix.active[:0]
	for _, c := range ix.active {
		if ix.cover[c] > 0 {
			kept = append(kept, c)
		}
	}
	ix.active = kept
	ix.stale = false
	return ix.active
}

// insertionScratch precomputes the tour's stop positions and edge lengths
// so pricing one candidate is a single pass of fresh hypotenuses instead
// of three metric calls per edge. bestInsertion mirrors tsp.BestInsertion
// term by term — pts[i].Dist(v) is the identical math.Hypot call
// set.Dist(order[i], v) bottoms out in, and edge[i] caches the identical
// m(a, b) value — so position and delta are bit-equal to the reference.
type insertionScratch struct {
	pts  []geom.Point
	edge []float64
}

// reset rebuilds the scratch for the tour described by pos(i), i < n.
// Buffers are reused across iterations.
func (sc *insertionScratch) reset(n int, pos func(i int) geom.Point) {
	sc.pts = sc.pts[:0]
	sc.edge = sc.edge[:0]
	for i := 0; i < n; i++ {
		sc.pts = append(sc.pts, pos(i))
	}
	for i := 0; i < n; i++ {
		sc.edge = append(sc.edge, sc.pts[i].Dist(sc.pts[(i+1)%n]))
	}
}

// bestInsertion returns the cheapest cyclic insertion slot for a stop at
// p, exactly as tsp.BestInsertion prices it against the same tour.
//
// Each vertex's hypotenuse to p is computed once and carried to the next
// edge. That is bit-equal to the reference's p.Dist(next): a−b is exactly
// −(b−a) in IEEE arithmetic, and math.Hypot takes the absolute value of
// both arguments first (the amd64 assembly and the pure-Go path alike), so
// Dist is symmetric bit for bit.
func (sc *insertionScratch) bestInsertion(p geom.Point) (pos int, delta float64) {
	n := len(sc.pts)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return 1, 2 * sc.pts[0].Dist(p)
	}
	pos, delta = 0, math.Inf(1)
	first := sc.pts[0].Dist(p)
	cur := first
	for i := 0; i < n; i++ {
		next := first
		if i+1 < n {
			next = sc.pts[i+1].Dist(p)
		}
		if d := cur + next - sc.edge[i]; d < delta {
			delta = d
			pos = i + 1
		}
		cur = next
	}
	return pos, delta
}

// bestPathInsertion is the open-path variant used by the replanner: the
// scratch holds start, interior stops, end, and insertion is priced
// between consecutive path nodes (pos 0 = right after start), mirroring
// pathState.bestInsertion including its clamp at 0. Vertex hypotenuses
// are carried forward exactly as in bestInsertion.
func (sc *insertionScratch) bestPathInsertion(p geom.Point) (pos int, delta float64) {
	pos, delta = 0, math.Inf(1)
	cur := sc.pts[0].Dist(p)
	for i := 0; i+1 < len(sc.pts); i++ {
		next := sc.pts[i+1].Dist(p)
		if d := cur + next - sc.edge[i]; d < delta {
			pos, delta = i, d
		}
		cur = next
	}
	if delta < 0 {
		delta = 0
	}
	return pos, delta
}

// resetPath rebuilds the scratch for a path: node(i) for i ≤ n+1 with
// node(0) the start and node(n+1) the end; edge[i] is the i→i+1 length.
func (sc *insertionScratch) resetPath(n int, node func(i int) geom.Point) {
	sc.pts = sc.pts[:0]
	sc.edge = sc.edge[:0]
	for i := 0; i <= n+1; i++ {
		sc.pts = append(sc.pts, node(i))
	}
	for i := 0; i+1 < len(sc.pts); i++ {
		sc.edge = append(sc.edge, sc.pts[i].Dist(sc.pts[i+1]))
	}
}

// slotCache keeps each candidate's cheapest insertion slot across greedy
// iterations, so a candidate is re-priced against only the two edges the
// last accept created instead of the whole tour. It holds 16 B per
// candidate: the tour version the entry was priced at, its slot and its
// delta. Entries are written per candidate, so contiguous worker shards
// never share one.
//
// Exactness: when the tour went from version ver−1 to ver by a pure
// insertion of v at position q (edge q−1, (a,b), replaced by (a,v) at
// q−1 and (v,b) at q), every other edge keeps its endpoints and its
// relative order; only the indices past q−1 shift by one. An edge's delta
// depends only on its endpoints and p, so the full scan over the new tour
// compares the same float64s for those edges as it did over the old one.
// Its answer is therefore the minimum, by (delta, then lowest slot), of
// the shifted old best and the two new edges — unless the old best was
// the replaced edge itself, which has no successor to compare against.
// That case, any other tour change (Improve moves, a rotation, an insert
// at slot 0) and entries older than ver−1 fall back to a full
// bestInsertion. The one-stop tour's special case needs no check of its
// own: it always answers slot 1, and the only insertion recorded after it
// is at slot 1, its replaced edge.
type slotCache struct {
	ver   uint32 // current tour version
	insAt int    // position of the pure insertion that produced ver; 0 for any other change
	at    []uint32
	pos   []int32
	delta []float64
}

// size allocates the per-candidate arrays on first use and starts a
// fresh version, so version 0 stays reserved for "never priced".
func (sl *slotCache) size(n int) {
	if sl.at != nil {
		return
	}
	sl.at = make([]uint32, n)
	sl.pos = make([]int32, n)
	sl.delta = make([]float64, n)
	sl.changed(0)
}

// changed bumps the tour version. insAt > 0 records that the change was a
// pure insertion at that position; 0 marks any other change.
func (sl *slotCache) changed(insAt int) {
	sl.ver++
	sl.insAt = insAt
}

// best returns candidate c's cheapest insertion slot for a stop at p on
// the tour sc was last reset to, bit-equal to sc.bestInsertion(p), and
// stores it for the next iteration.
func (sl *slotCache) best(c int, p geom.Point, sc *insertionScratch) (int, float64) {
	at, q := sl.at[c], sl.insAt
	if at == sl.ver {
		return int(sl.pos[c]), sl.delta[c]
	}
	var pos int
	var delta float64
	if at != 0 && at == sl.ver-1 && q > 0 && int(sl.pos[c]) != q {
		pos, delta = int(sl.pos[c]), sl.delta[c]
		if pos > q {
			pos++
		}
		// The two new edges, priced with bestInsertion's expression.
		dv := sc.pts[q].Dist(p)
		if d := sc.pts[q-1].Dist(p) + dv - sc.edge[q-1]; d < delta || d == delta && q < pos { //uavdc:allow floateq exact tie keeps the full scan's lowest-slot preference
			pos, delta = q, d
		}
		if d := dv + sc.pts[(q+1)%len(sc.pts)].Dist(p) - sc.edge[q]; d < delta || d == delta && q+1 < pos { //uavdc:allow floateq exact tie keeps the full scan's lowest-slot preference
			pos, delta = q+1, d
		}
	} else {
		pos, delta = sc.bestInsertion(p)
	}
	sl.at[c], sl.pos[c], sl.delta[c] = sl.ver, int32(pos), delta
	return pos, delta
}
