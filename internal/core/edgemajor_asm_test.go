//go:build amd64 && linux && !purego && !ihtlchecked && !race

package core

import (
	"fmt"
	"math"
	"testing"

	"ihtl/internal/graph"
	"ihtl/internal/xrand"
)

// The twin differential of the edge-major pull's pair loop: the
// assembly (pullEdgePairsAsm) against pullEdgePairs, called directly
// over generated adv streams, on the edge and row each stops at and on
// every element of rows, bit for bit. srcs, src and rows each end where
// a PROT_NONE page begins (guarded, lanes_asm_test.go), and the last
// edge's source is the last vertex, so a lookahead read of srcs past
// its end, or any read past src or rows, faults.

// edgeValues are the source values whose bits are fragile: signed
// zeros, infinities, subnormals and NaNs with payloads (a quiet one of
// each sign and a signalling one). Of two NaNs an add keeps its first
// operand's payload, so they show the accumulator staying first.
var edgeValues = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.Float64frombits(0x7ff8_0000_0000_beef), math.Float64frombits(0xfff8_0000_0000_0d0e), math.Float64frombits(0x7ff0_0000_0000_0001),
	math.Float64frombits(1), -math.Float64frombits(1), math.Float64frombits(0x000f_ffff_ffff_ffff),
	-math.MaxFloat64, math.MaxFloat64,
}

// edgeVec fills x with edgeValues one time in three and finite values of
// mixed sign and magnitude otherwise, so sums round and their order
// shows.
func edgeVec(rng *xrand.Xoshiro256, x []float64) {
	for i := range x {
		if rng.Uint64n(3) == 0 {
			x[i] = edgeValues[rng.Intn(len(edgeValues))]
		} else {
			x[i] = (rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(80)-40)
		}
	}
}

// escapeAdvance is how far the differential's caller moves on an escape:
// a real advance of 15 rows or more, different from edge to edge.
func escapeAdvance(j int) int { return advEscape + j%7 }

// pairsBody is one body of the pair loop over fixed streams.
type pairsBody func(j, end, r int, rows []float64) (int, int)

// walkEdges pulls edges [j, end) from row r the way pullRowsEdgeMajor
// does — pairs through body, every other edge one at a time here — and
// returns each (edge, row) the body stopped at.
func walkEdges(body pairsBody, adv []uint8, srcs []graph.VID, src, rows []float64, j, end, r int) [][2]int {
	var stops [][2]int
	for j < end {
		if j&1 == 0 {
			j, r = body(j, end, r, rows)
			stops = append(stops, [2]int{j, r})
			if j == end {
				break
			}
		}
		if a := advAt(adv, j); a == advEscape {
			r += escapeAdvance(j)
		} else {
			r += a
		}
		rows[r] += src[srcs[j]]
		j++
	}
	return stops
}

func TestEdgeMajorAsmPairsMatchTwin(t *testing.T) {
	const edges, nv = 1501, 977 // an odd edge count: the last byte has one edge
	rng := xrand.New(29)
	// Advances mostly 0-2 (rows of one to a few edges, empty rows between),
	// with escapes alone at even and at odd edges, back to back inside a
	// byte and across two, and in a run; the first and the last edge
	// escape too.
	nib := make([]int, edges)
	for i := range nib {
		switch x := rng.Uint64n(40); {
		case x < 16:
			nib[i] = 0
		case x < 30:
			nib[i] = 1
		case x < 37:
			nib[i] = 2 + int(rng.Uint64n(13)) // 2-14: empty rows
		default:
			nib[i] = advEscape
		}
	}
	for _, i := range []int{0, 100, 201, 300, 301, 401, 402, 500, 501, 502, 503, 504, edges - 1} {
		nib[i] = advEscape
	}
	adv := make([]uint8, (edges+1)/2)
	rowsNeeded := 1
	for i, a := range nib {
		adv[i>>1] |= uint8(a) << (uint(i&1) << 2)
		if a == advEscape {
			a = escapeAdvance(i)
		}
		rowsNeeded += a
	}
	srcs := guarded[graph.VID](t, edges)
	for i := range srcs {
		srcs[i] = graph.VID(rng.Intn(nv))
	}
	srcs[edges-1] = nv - 1
	src := guarded[float64](t, nv)
	edgeVec(rng, src)
	start := make([]float64, rowsNeeded) // rows hold values before the walk, NaNs among them
	edgeVec(rng, start)
	want, got := make([]float64, rowsNeeded), guarded[float64](t, rowsNeeded)

	// rowBefore[j] is the row of edge j-1 (0 before edge 0).
	rowBefore := make([]int, edges+1)
	for i, a := range nib {
		if a == advEscape {
			a = escapeAdvance(i)
		}
		rowBefore[i+1] = rowBefore[i] + a
	}

	var windows [][2]int
	for lo := 0; lo < 24; lo++ {
		for _, hi := range []int{lo, lo + 1, lo + 2, lo + 3, lo + 8, lo + 33, lo + 34, edges} {
			windows = append(windows, [2]int{lo, min(hi, edges)})
		}
	}
	for k := 0; k < 200; k++ {
		lo := rng.Intn(edges + 1)
		windows = append(windows, [2]int{lo, lo + rng.Intn(edges-lo+1)})
	}
	for _, w := range [][2]int{{299, 302}, {300, 302}, {301, 303}, {499, 506}, {500, 505}, {edges - 2, edges}, {edges - 1, edges}, {edges - 40, edges}} {
		windows = append(windows, w) // windows that end on and start at escapes
	}

	twin := func(j, end, r int, rows []float64) (int, int) {
		return pullEdgePairs(adv, srcs, src, rows, j, end, r)
	}
	for _, dist := range []int{prefetchDist, 1, 2, 16, 64, edges, 1 << 20} {
		asm := func(j, end, r int, rows []float64) (int, int) {
			return pullEdgePairsAsm(adv, srcs, src, rows, j, end, r, dist)
		}
		for _, w := range windows {
			label := fmt.Sprintf("dist %d, edges [%d, %d)", dist, w[0], w[1])
			copy(want, start)
			copy(got, start)
			wantStops := walkEdges(twin, adv, srcs, src, want, w[0], w[1], rowBefore[w[0]])
			gotStops := walkEdges(asm, adv, srcs, src, got, w[0], w[1], rowBefore[w[0]])
			if fmt.Sprint(gotStops) != fmt.Sprint(wantStops) {
				t.Fatalf("%s: the assembly stopped at (edge, row) %v, the twin at %v", label, gotStops, wantStops)
			}
			requireBitIdentical(t, label, want, got)
		}
	}
}

// TestEdgeMajorAsmChunkEdges runs pullRowsEdgeMajor under both bodies
// over a sparse block whose escapes sit on the first and on the last
// edge of a pullChunkRows chunk, at either parity, and after runs of
// empty rows: the assembly's result must be the twin's bit for bit, and
// both the CSR pull's (NaN against any NaN: the CSR sum's operand order
// is the compiler's).
func TestEdgeMajorAsmChunkEdges(t *testing.T) {
	const rows, hubs = 3*pullChunkRows + 100, 2
	defer ForceGoTwins(false)
	for _, shift := range []int{0, 1} { // one more edge up front flips every parity below
		rng := xrand.New(uint64(41 + shift))
		sr := synthRows{0: {1}}
		if shift == 1 {
			sr[0] = append(sr[0], 2)
		}
		for r := 1; r < rows; r++ {
			if r%3 != 0 {
				sr[r] = []graph.VID{graph.VID(rng.Intn(rows + hubs))}
			}
		}
		// Around each chunk boundary c: a hole of 39 rows, then row c-1
		// with one edge — the chunk's last, an escape — then a hole of 16
		// rows, so the next chunk's first edge (row c+16's) escapes too.
		for c := pullChunkRows; c < rows; c += pullChunkRows {
			for r := c - 40; r < c+16; r++ {
				delete(sr, r)
			}
			sr[c-41] = []graph.VID{5}
			sr[c-1] = []graph.VID{rows + hubs - 1}
			sr[c+16] = []graph.VID{3, 4}
		}
		ih := synthIHTL(rows+hubs, rows, hubs, []synthRows{{}}, sr)
		sp := &ih.Sparse
		adv := make([]uint8, (sp.NumEdges()+1)/2)
		fillAdv(adv, sp.Index, 0, sp.NumEdges())
		for c := pullChunkRows; c < rows; c += pullChunkRows {
			first, last := int(sp.Index[c]), int(sp.Index[c])-1
			if advAt(adv, first) != advEscape || advAt(adv, last) != advEscape {
				t.Fatalf("shift %d: chunk at row %d: adv %d on its first edge, %d on the last before it", shift, c, advAt(adv, first), advAt(adv, last))
			}
		}
		src := make([]float64, ih.NumV)
		edgeVec(rng, src)
		e := &Engine{ih: ih, sparseBounds: []int{0, 0}}
		csr, twin, asm := make([]float64, ih.NumV), make([]float64, ih.NumV), make([]float64, ih.NumV)
		for _, rg := range [][2]int{{0, rows}, {1, rows}, {pullChunkRows - 1, rows}, {pullChunkRows, 2*pullChunkRows + 1}, {5, 2 * pullChunkRows}, {rows - 1, rows}} {
			lo, hi := rg[0], rg[1]
			label := fmt.Sprintf("shift %d, rows [%d, %d)", shift, lo, hi)
			for i := range csr {
				csr[i], twin[i], asm[i] = -7, -7, -7 // rows outside [lo, hi) must stay untouched
			}
			e.sparseBounds[0], e.sparseBounds[1] = lo, hi
			e.sparsePullPart(0, src, csr)
			prev := rowBeforeEdge(sp.Index, sp.Index[lo])
			ForceGoTwins(true)
			pullRowsEdgeMajor(sp, adv, lo, hi, prev, src, twin)
			ForceGoTwins(false)
			if pullPrefetch != prefetchDist {
				t.Fatalf("pullPrefetch = %d, want the assembly at %d", pullPrefetch, prefetchDist)
			}
			pullRowsEdgeMajor(sp, adv, lo, hi, prev, src, asm)
			requireBitIdentical(t, label+": assembly against twin", twin, asm)
			requireSameBits(t, label+": twin against CSR", csr, twin)
		}
	}
}
