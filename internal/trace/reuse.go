// Package trace quantifies temporal locality via reuse distance (LRU
// stack distance): for each access to a cache line, the number of
// distinct lines touched since its previous access. A fully
// associative LRU cache of capacity C hits exactly the accesses with
// reuse distance < C, so the reuse-distance CDF characterises a
// stream's locality for EVERY cache size at once — the precise,
// cache-independent form of the paper's in-hub temporal-locality
// argument: pull traversal gives hub-source reads huge reuse
// distances, iHTL's flipped blocks give hub-buffer writes tiny ones.
package trace

import "sort"

// Infinite marks a cold (first) access in reuse-distance output.
const Infinite = int64(-1)

// ReuseDistances computes the exact LRU stack distance of every
// access in the line-address stream, in O(N log N) time using a
// Fenwick tree over access timestamps (Bennett & Kruskal's method).
// Element i of the result is the reuse distance of stream[i], or
// Infinite for a first access.
func ReuseDistances(stream []uint64) []int64 {
	n := len(stream)
	out := make([]int64, n)
	lastPos := make(map[uint64]int, 1024)
	// bit[t] = 1 if the access at timestamp t is the MOST RECENT
	// access to its line; prefix sums count distinct lines.
	bit := newFenwick(n)
	for i, line := range stream {
		if prev, seen := lastPos[line]; seen {
			// Distinct lines touched strictly after prev: sum of
			// markers in (prev, i).
			out[i] = int64(bit.sum(i-1) - bit.sum(prev))
			bit.add(prev, -1)
		} else {
			out[i] = Infinite
		}
		bit.add(i, 1)
		lastPos[line] = i
	}
	return out
}

// fenwick is a 0-indexed Fenwick (binary indexed) tree.
type fenwick struct {
	tree []int
}

func newFenwick(n int) *fenwick { return &fenwick{tree: make([]int, n+1)} }

func (f *fenwick) add(i, delta int) {
	for i++; i < len(f.tree); i += i & (-i) {
		f.tree[i] += delta
	}
}

// sum returns the prefix sum over [0, i].
func (f *fenwick) sum(i int) int {
	s := 0
	for i++; i > 0; i -= i & (-i) {
		s += f.tree[i]
	}
	return s
}

// HitRatioAt returns the fraction of accesses a fully associative LRU
// cache of the given line capacity would hit (distance < capacity;
// cold misses count as misses). Computed from raw distances for
// exactness.
func HitRatioAt(distances []int64, capacity int64) float64 {
	if len(distances) == 0 {
		return 0
	}
	hits := 0
	for _, d := range distances {
		if d != Infinite && d < capacity {
			hits++
		}
	}
	return float64(hits) / float64(len(distances))
}

// MedianFinite returns the median of the finite distances (0 when
// none exist).
func MedianFinite(distances []int64) int64 {
	finite := make([]int64, 0, len(distances))
	for _, d := range distances {
		if d != Infinite {
			finite = append(finite, d)
		}
	}
	if len(finite) == 0 {
		return 0
	}
	sort.Slice(finite, func(i, j int) bool { return finite[i] < finite[j] })
	return finite[len(finite)/2]
}
