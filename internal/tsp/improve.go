package tsp

import (
	"uavdc/internal/obs"
	"uavdc/internal/trace"
)

// SpanImprove is the trace span wrapping one Improve polish (2-opt +
// Or-opt to a fixed point).
const SpanImprove = "tsp/improve"

// Instrumentation counter names recorded by the local-search passes. A
// "pass" is one full sweep over the tour; a "move" is one accepted
// improving exchange or relocation.
const (
	CounterTwoOptPasses = "tsp.twoopt_passes"
	CounterTwoOptMoves  = "tsp.twoopt_moves"
	CounterOrOptPasses  = "tsp.oropt_passes"
	CounterOrOptMoves   = "tsp.oropt_moves"
)

// TwoOpt improves t in place by repeatedly reversing segments while an
// improving 2-exchange exists, up to maxRounds full sweeps (≤ 0 means sweep
// until no improvement). Returns the total cost reduction. The classic
// post-processing step after Christofides or insertion construction. An
// optional obs.Recorder counts sweeps and accepted moves.
func TwoOpt(t *Tour, m Metric, maxRounds int, rec ...obs.Recorder) float64 {
	n := t.Len()
	if n < 4 {
		return 0
	}
	r := obs.First(rec...)
	passes := r.Counter(CounterTwoOptPasses)
	moves := r.Counter(CounterTwoOptMoves)
	var saved float64
	for round := 0; maxRounds <= 0 || round < maxRounds; round++ {
		passes.Inc()
		improved := false
		for i := 0; i < n-1; i++ {
			a := t.Order[i]
			b := t.Order[i+1]
			dAB := m(a, b)
			for j := i + 2; j < n; j++ {
				// Reversing t.Order[i+1..j] replaces edges (a,b),(c,d)
				// with (a,c),(b,d).
				c := t.Order[j]
				d := t.Order[(j+1)%n]
				if i == 0 && j == n-1 {
					continue // same edge pair on the cycle
				}
				delta := m(a, c) + m(b, d) - dAB - m(c, d)
				if delta < -1e-12 {
					reverse(t.Order[i+1 : j+1])
					saved -= delta
					improved = true
					moves.Inc()
					b = t.Order[i+1]
					dAB = m(a, b)
				}
			}
		}
		if !improved {
			break
		}
	}
	return saved
}

// OrOpt improves t in place by relocating chains of 1–3 consecutive items
// to better positions, complementing 2-opt (which cannot fix misplaced
// single stops). Returns the total cost reduction. An optional
// obs.Recorder counts sweeps and accepted relocations.
func OrOpt(t *Tour, m Metric, maxRounds int, rec ...obs.Recorder) float64 {
	n := t.Len()
	if n < 4 {
		return 0
	}
	r := obs.First(rec...)
	passes := r.Counter(CounterOrOptPasses)
	moves := r.Counter(CounterOrOptMoves)
	var saved float64
	for round := 0; maxRounds <= 0 || round < maxRounds; round++ {
		passes.Inc()
		improved := false
		for segLen := 1; segLen <= 3 && segLen < n-1; segLen++ {
			for i := 0; i < n; i++ {
				// Segment s = positions i..i+segLen-1 (cyclic segments
				// crossing the wrap are skipped; a full sweep still sees
				// every segment in some rotation over successive rounds).
				if i+segLen > n {
					continue
				}
				prev := t.Order[(i-1+n)%n]
				segStart := t.Order[i]
				segEnd := t.Order[i+segLen-1]
				next := t.Order[(i+segLen)%n]
				if prev == segEnd || next == segStart {
					continue // segment is the whole cycle
				}
				removeGain := m(prev, segStart) + m(segEnd, next) - m(prev, next)
				if removeGain <= 1e-12 {
					continue
				}
				// Try inserting between every other edge (a, b).
				for j := 0; j < n; j++ {
					a := t.Order[j]
					b := t.Order[(j+1)%n]
					// Skip edges touching the segment or its boundary.
					if j >= i-1 && j <= i+segLen-1 {
						continue
					}
					if i == 0 && j == n-1 {
						continue
					}
					insCost := m(a, segStart) + m(segEnd, b) - m(a, b)
					if insCost < removeGain-1e-12 {
						relocate(t.Order, i, segLen, j)
						saved += removeGain - insCost
						improved = true
						moves.Inc()
						// Restart scanning this segment length.
						i = -1
						break
					}
				}
				if i == -1 {
					break
				}
			}
		}
		if !improved {
			break
		}
	}
	return saved
}

// relocate moves the segment order[i:i+segLen] so it follows the element
// originally at position j (j outside the segment).
func relocate(order []int, i, segLen, j int) {
	seg := append([]int(nil), order[i:i+segLen]...)
	rest := make([]int, 0, len(order)-segLen)
	rest = append(rest, order[:i]...)
	rest = append(rest, order[i+segLen:]...)
	// Find the element originally at position j within rest.
	target := order[j]
	pos := -1
	for k, v := range rest {
		if v == target {
			pos = k
			break
		}
	}
	out := make([]int, 0, len(order))
	out = append(out, rest[:pos+1]...)
	out = append(out, seg...)
	out = append(out, rest[pos+1:]...)
	copy(order, out)
}

func reverse(s []int) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// Improve applies TwoOpt then OrOpt until neither helps (bounded sweeps),
// returning the total reduction. This is the standard polish the planners
// apply after construction. An optional obs.Recorder is forwarded to both
// passes.
func Improve(t *Tour, m Metric, rec ...obs.Recorder) float64 {
	saved, _ := ImproveCertified(t, m, rec...)
	return saved
}

// ImproveCertified is Improve that also reports whether t ended certified:
// Improve's last iteration made no move, so every 2-opt and Or-opt move
// those sweeps evaluate on t is non-improving. It is false when Improve
// stopped at its iteration cap, or on an iteration whose moves together
// saved no more than the 1e-12 tolerance.
func ImproveCertified(t *Tour, m Metric, rec ...obs.Recorder) (float64, bool) {
	r := obs.First(rec...)
	end := trace.Of(r).Begin(SpanImprove, trace.Int("items", t.Len()))
	total, certified := improve(t, m, r)
	end(trace.Num("saved_m", total))
	return total, certified
}

// improve is the body of ImproveCertified without the span.
func improve(t *Tour, m Metric, r obs.Recorder) (float64, bool) {
	var total float64
	certified := false
	for iter := 0; iter < 8; iter++ {
		d := TwoOpt(t, m, 0, r) + OrOpt(t, m, 2, r)
		total += d
		// Every accepted move adds a strictly positive saving (2-opt
		// subtracts a delta below -1e-12, Or-opt adds removeGain-insCost
		// with insCost < removeGain), so d is exactly 0 iff this
		// iteration made no move.
		certified = d <= 0
		if d <= 1e-12 {
			break
		}
	}
	return total, certified
}

// improveCertMin is the tour size below which ImproveAfterRemove always
// runs the full ImproveCertified. Small tours are cheap to sweep, and
// below five items the sweeps' own size guards (no passes under four
// items, Or-opt segment lengths capped by the tour size) differ between
// the tour before and after a removal.
const improveCertMin = 8

// ImproveAfterRemove is ImproveCertified for a tour that has just lost
// the item at position p of its previous order (p < 0: nothing was
// removed), where certified reports whether that previous tour was
// certified by ImproveCertified or by an earlier ImproveAfterRemove.
//
// For a certified tour it costs O(n) instead of full sweeps. Removing an
// item closes the gap with one new edge (a, b) and never rotates the
// order, so every move whose evaluation does not read (a, b) compares the
// same float64s it compared in the certifying sweep, under skip rules
// that depend only on which items it involves: it is still
// non-improving. Only the moves that read (a, b) are evaluated, with
// TwoOpt's and OrOpt's exact expressions and tolerances: 2-opt pairs
// including the edge, Or-opt segments whose window (prev, segment, next)
// spans it, and Or-opt moves into it. If none improves, ImproveAfterRemove
// records exactly what a zero-move Improve records — the span, one pass of
// each sweep, no moves — and returns 0, true. Otherwise, or when the tour
// was not certified or is smaller than improveCertMin, it runs the full
// Improve. The tour, return values, counters and span are bit-identical
// to ImproveCertified(t, m, rec...) either way.
func ImproveAfterRemove(t *Tour, m Metric, p int, certified bool, rec ...obs.Recorder) (float64, bool) {
	n := t.Len()
	if !certified || n < improveCertMin {
		return ImproveCertified(t, m, rec...)
	}
	r := obs.First(rec...)
	end := trace.Of(r).Begin(SpanImprove, trace.Int("items", n))
	var total float64
	if p >= 0 && improvesAfterRemove(t.Order, m, p) {
		total, certified = improve(t, m, r)
	} else {
		// What a zero-move Improve records: one pass of each sweep, and
		// the move counters registered at zero.
		r.Counter(CounterTwoOptPasses).Inc()
		r.Counter(CounterTwoOptMoves)
		r.Counter(CounterOrOptPasses).Inc()
		r.Counter(CounterOrOptMoves)
	}
	end(trace.Num("saved_m", total))
	return total, certified
}

// improvesAfterRemove reports whether a 2-opt or Or-opt move reading the
// edge that closed the gap left by removing position p improves order.
// order must have at least 5 items, so every Or-opt segment length is
// swept. The gap closes between positions e and e+1 (mod n); removing the
// first or the last item leaves the new edge at the wrap.
func improvesAfterRemove(order []int, m Metric, p int) bool {
	n := len(order)
	e := (p + n - 1) % n

	// 2-opt pairs with the new edge as the first edge (i = e) ...
	if e < n-2 {
		a := order[e]
		b := order[e+1]
		dAB := m(a, b)
		for j := e + 2; j < n; j++ {
			if e == 0 && j == n-1 {
				continue
			}
			c := order[j]
			d := order[(j+1)%n]
			if m(a, c)+m(b, d)-dAB-m(c, d) < -1e-12 {
				return true
			}
		}
	}
	// ... and as the second edge (j = e).
	c := order[e]
	d := order[(e+1)%n]
	for i := 0; i+2 <= e; i++ {
		if i == 0 && e == n-1 {
			continue
		}
		a := order[i]
		b := order[i+1]
		dAB := m(a, b)
		if m(a, c)+m(b, d)-dAB-m(c, d) < -1e-12 {
			return true
		}
	}

	// Or-opt: a segment whose window spans the new edge is tried against
	// every target edge; any other segment only against the new edge.
	for segLen := 1; segLen <= 3; segLen++ {
		for i := 0; i+segLen <= n; i++ {
			prev := order[(i-1+n)%n]
			segStart := order[i]
			segEnd := order[i+segLen-1]
			next := order[(i+segLen)%n]
			if prev == segEnd || next == segStart {
				continue
			}
			removeGain := m(prev, segStart) + m(segEnd, next) - m(prev, next)
			if removeGain <= 1e-12 {
				continue
			}
			lo, hi := e, e+1
			if (e-i+1+n)%n <= segLen {
				// The window's edges i-1 .. i+segLen-1 (mod n) include e.
				lo, hi = 0, n
			}
			for j := lo; j < hi; j++ {
				a := order[j]
				b := order[(j+1)%n]
				if j >= i-1 && j <= i+segLen-1 {
					continue
				}
				if i == 0 && j == n-1 {
					continue
				}
				insCost := m(a, segStart) + m(segEnd, b) - m(a, b)
				if insCost < removeGain-1e-12 {
					return true
				}
			}
		}
	}
	return false
}
