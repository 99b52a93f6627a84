//go:build amd64 && linux && !purego && !ihtlchecked && !race

package core

import (
	"fmt"
	"slices"
	"testing"

	"ihtl/internal/graph"
	"ihtl/internal/xrand"
)

// The twin differential of the scalar push's two prefetching bodies:
// pushTaskFlatAsm against pushTaskFlat and pushEdgePairsAsm against
// pushEdgePairs, called directly over one hand-built flipped block, on
// every hub entry bit for bit and, for the pair loop, on the edge and
// source each call stops at. Index, Dsts, src and buf each end where a
// PROT_NONE page begins (guarded, lanes_asm_test.go), and the last edge
// is the last source's and names the last hub, so a lookahead read of
// Dsts past its end, or any read past src or buf, faults.

// pushAsmBlock is the block the differential pushes: rows of 0-4 edges
// with short holes between, then advances of 14, 15, 16 and 70 000 rows
// whose first edge falls on an even and on an odd edge ordinal — 15 and
// past are escapes — and a first edge that escapes too. It returns the
// block and the rows a task may start or end at: every row of the dense
// part and the rows on either side of every hole.
func pushAsmBlock(t *testing.T, rng *xrand.Xoshiro256, hubs int) (*FlippedBlock, []int) {
	var lengths []int
	edges := 0
	row := func(n int) {
		lengths = append(lengths, n)
		edges += n
	}
	for range 20 { // edge 0 is row 20's: an escape from the row-0 start
		row(0)
	}
	row(2)
	for range 300 {
		switch x := rng.Uint64n(10); {
		case x < 3:
			row(0)
		case x < 6:
			row(1)
		default:
			row(2 + int(rng.Uint64n(3)))
		}
	}
	for _, gap := range []int{14, 15, 16, 70_000} {
		for parity := range 2 {
			// A row of one or two edges so that the hole's first edge lands
			// on this parity, the hole, then rows past it.
			row(1 + (edges+1+parity)%2)
			if edges%2 != parity {
				t.Fatalf("hole of %d: first edge %d, want parity %d", gap, edges, parity)
			}
			for range gap - 1 {
				row(0)
			}
			for range 3 {
				row(1 + int(rng.Uint64n(3)))
			}
		}
	}
	row(3) // the last source has edges: its value is src's last element
	idx := guarded[int64](t, len(lengths)+1)
	for r, n := range lengths {
		idx[r+1] = idx[r] + int64(n)
	}
	dsts := guarded[graph.VID](t, edges)
	for i := range dsts {
		dsts[i] = graph.VID(rng.Uint64n(uint64(hubs)))
	}
	dsts[edges-1] = graph.VID(hubs - 1)
	for r := range lengths { // ascending within a row, as a build leaves them
		slices.Sort(dsts[idx[r]:idx[r+1]])
	}
	var cuts []int
	for r := range lengths {
		if r < 330 || lengths[r] > 0 || (r > 0 && lengths[r-1] > 0) {
			cuts = append(cuts, r)
		}
	}
	cuts = append(cuts, len(lengths))
	return &FlippedBlock{HubHi: hubs, Index: idx, Dsts: dsts}, cuts
}

// pushWindows are the [lo, hi) source ranges the differential pushes:
// from every cut row to the next few cuts and on at growing strides to
// the last row.
func pushWindows(cuts []int) [][2]int {
	var ws [][2]int
	for a := range cuts {
		for b := a; b < len(cuts); b += max(1, b-a) {
			ws = append(ws, [2]int{cuts[a], cuts[b]})
		}
		ws = append(ws, [2]int{cuts[a], cuts[len(cuts)-1]})
	}
	return ws
}

func TestPushAsmMatchesTwin(t *testing.T) {
	const hubs = 311
	rng := xrand.New(45)
	fb, cuts := pushAsmBlock(t, rng, hubs)
	idx, dsts := fb.Index, fb.Dsts
	rows, edges := len(idx)-1, len(dsts)
	adv := make([]uint8, (edges+1)/2)
	fillAdv(adv, idx, 0, int64(edges))
	// The block holds what it is for: escapes at both parities, edge 0's
	// among them.
	var escapes [2]int
	for i := 0; i < edges; i++ {
		if advAt(adv, i) == advEscape {
			escapes[i&1]++
		}
	}
	if escapes[0] < 4 || escapes[1] < 3 || advAt(adv, 0) != advEscape {
		t.Fatalf("escapes at even and odd edges: %v; edge 0's advance %d", escapes, advAt(adv, 0))
	}
	src := guarded[float64](t, rows)
	edgeVec(rng, src)
	for _, r := range []int{25, 26, 27} { // whole rows of +0.0 and -0.0 sources
		src[r] = 0
	}
	start := make([]float64, hubs) // hub entries hold values before the push, NaNs among them
	edgeVec(rng, start)
	want, got := make([]float64, hubs), guarded[float64](t, hubs)
	windows := pushWindows(cuts)

	for _, dist := range []int{1, 2, prefetchDist, edges, 1 << 20} {
		for _, w := range windows {
			lo, hi := w[0], w[1]
			label := fmt.Sprintf("dist %d, sources [%d, %d)", dist, lo, hi)

			copy(want, start)
			copy(got, start)
			pushTaskFlat(&blockTask{lo: lo, hi: hi}, fb, src, want)
			pushTaskFlatAsm(idx, dsts, lo, hi, src, got, dist)
			requireBitIdentical(t, "csr: "+label, want, got)

			// The pair loops in lockstep, from the task's first edge as
			// pushTaskEdgeMajor walks it; a stop that differs fails at once.
			copy(want, start)
			copy(got, start)
			i, end := int(idx[lo]), int(idx[hi])
			s := rowBeforeEdge(idx, idx[lo])
			for i < end {
				if i&1 == 0 {
					wi, ws := pushEdgePairs(adv, dsts, src, want, i, end, s)
					gi, gs := pushEdgePairsAsm(adv, dsts, src, got, i, end, s, dist)
					if gi != wi || gs != ws {
						t.Fatalf("edge-major: %s: from edge %d the assembly stopped at (edge, source) (%d, %d), the twin at (%d, %d)", label, i, gi, gs, wi, ws)
					}
					if i, s = wi, ws; i == end {
						break
					}
				}
				s = advance(idx, i, s, advAt(adv, i))
				want[dsts[i]] += src[s]
				got[dsts[i]] += src[s]
				i++
			}
			requireBitIdentical(t, "edge-major: "+label, want, got)
		}
	}

	// Through the pair loop's caller: pushTaskEdgeMajor under each body,
	// against the CSR twin, from the cleared buffer a step pushes into
	// (the edge-major push adds +0.0 sources the CSR one skips, which
	// only a signalling NaN already in the buffer would show).
	defer ForceGoTwins(false)
	for _, w := range windows {
		lo, hi := w[0], w[1]
		bt := &blockTask{lo: lo, hi: hi, prev: rowBeforeEdge(idx, idx[lo])}
		clear(want)
		pushTaskFlat(bt, fb, src, want)
		for _, goTwins := range []bool{false, true} {
			ForceGoTwins(goTwins)
			clear(got)
			pushTaskEdgeMajor(bt, fb, adv, src, got)
			requireBitIdentical(t, fmt.Sprintf("pushTaskEdgeMajor (go twins %v), sources [%d, %d)", goTwins, lo, hi), want, got)
		}
	}
}
