package tsp

import (
	"fmt"
	"math"
)

// NearestNeighbor builds a tour by starting at items[0] and repeatedly
// moving to the closest unvisited item. Simple, fast (O(k²)) and a useful
// baseline/seed for local search.
func NearestNeighbor(items []int, m Metric) Tour {
	k := len(items)
	if k == 0 {
		return Tour{}
	}
	order := make([]int, 0, k)
	used := make([]bool, k)
	cur := 0
	used[0] = true
	order = append(order, items[0])
	for len(order) < k {
		best, bestD := -1, math.Inf(1)
		for i := 0; i < k; i++ {
			if !used[i] {
				if d := m(items[cur], items[i]); d < bestD {
					best, bestD = i, d
				}
			}
		}
		used[best] = true
		order = append(order, items[best])
		cur = best
	}
	return Tour{Order: order}
}

// BestInsertion returns the position pos (0..t.Len()) at which inserting
// item v into t increases the cycle cost least, and that minimum increase.
// Inserting at pos places v before t.Order[pos] (pos == t.Len() appends,
// equivalent to pos == 0 on a cycle but kept distinct for slice surgery).
//
// For a tour of < 2 items the delta is the round trip to the sole existing
// item (or 0 for an empty tour).
func BestInsertion(t Tour, v int, m Metric) (pos int, delta float64) {
	n := t.Len()
	switch n {
	case 0:
		return 0, 0
	case 1:
		return 1, 2 * m(t.Order[0], v)
	}
	pos, delta = 0, math.Inf(1)
	for i := 0; i < n; i++ {
		a := t.Order[i]
		b := t.Order[(i+1)%n]
		d := m(a, v) + m(v, b) - m(a, b)
		if d < delta {
			delta = d
			pos = i + 1
		}
	}
	return pos, delta
}

// Insert returns a new tour with item v inserted at position pos (as
// defined by BestInsertion). The receiver is not modified.
func Insert(t Tour, v int, pos int) Tour {
	if pos < 0 || pos > t.Len() {
		panic(fmt.Sprintf("tsp: insertion position %d out of range [0,%d]", pos, t.Len()))
	}
	order := make([]int, 0, t.Len()+1)
	order = append(order, t.Order[:pos]...)
	order = append(order, v)
	order = append(order, t.Order[pos:]...)
	return Tour{Order: order}
}

// Remove returns a new tour without item v and the resulting cost decrease.
// Removing an item not in the tour returns the tour unchanged with delta 0.
func Remove(t Tour, v int, m Metric) (Tour, float64) {
	i := t.IndexOf(v)
	if i < 0 {
		return t, 0
	}
	n := t.Len()
	var delta float64
	if n >= 3 {
		a := t.Order[(i-1+n)%n]
		b := t.Order[(i+1)%n]
		delta = m(a, v) + m(v, b) - m(a, b)
	} else if n == 2 {
		delta = 2 * m(t.Order[0], t.Order[1])
	}
	order := make([]int, 0, n-1)
	order = append(order, t.Order[:i]...)
	order = append(order, t.Order[i+1:]...)
	return Tour{Order: order}, delta
}
