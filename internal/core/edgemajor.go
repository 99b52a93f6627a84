package core

// Edge-major traversal of short-row blocks.
//
// A CSR block is walked row by row: an outer loop over Index, an inner
// loop over the row's edges. When the rows are short the inner loop's
// exit is the cost — it runs a data-dependent 0-7 trips, so the branch
// predictor misses about once per row, and on the web analog (71 % of
// flipped rows hold 1-2 edges, 34 % of sparse rows are empty) that miss
// is worth more than the row's memory traffic (DESIGN.md §17).
//
// The edge-major layout keeps Dsts/Srcs exactly as built and adds FOUR
// BITS per edge: adv(i) is how many rows edge i lies past the row of
// edge i-1 (0 inside a row, 1 at the next row, k+1 after k empty rows;
// the row before edge 0 is row 0), two edges to a byte, even edge in
// the low nibble. The kernels then run one flat loop over edges with no
// per-row control flow —
//
//	push: s += adv(i); buf[dsts[i]] += src[s]
//	pull: r += adv(j); dst[base+r] += src[srcs[j]]
//
// — unrolled by the two edges of a byte, and stop reading the
// 8-byte-per-row Index. An advance of 15 rows or more does not fit the
// nibble: it is stored as advEscape and the kernel finds the row in
// Index galloping forward from the row it is on (rowOfEdgeFrom) — reads
// of nearby entries, O(log gap) of them, and a branch never taken on
// blocks without such holes.
//
// Bits are unchanged by construction. Per destination the adds happen
// in the same ascending-source order from a +0.0 seed (the cleared hub
// buffer, the cleared dst chunk) as the CSR kernels'; and dropping the
// per-row SkipZero is transparent for the reason sparse.go's header
// gives — a +0.0-seeded sum is never -0.0, and x + (+0.0) == x for
// every other x.
//
// The streams are engine state, derived in NewEngine on the pool from
// Index alone: never serialised, no file-format field. The K-lane batch
// kernels and the packed (varint) kernels keep CSR — row skipping is
// what pays on PPR's sparse vectors, and the packed rows carry their
// own degree.
//
// The pull's src reads are random, and past L2 they miss. On amd64 its
// pair loop runs an assembly body (edgemajor_amd64.s) that prefetches
// the source value prefetchDist edges ahead; pullEdgePairs is that
// body's Go twin, bit for bit (DESIGN.md §17, "Prefetching the pull").
// The push's hub-buffer writes stay inside the 1 MiB buffer, but it
// shares L2 with the topology and src streams, so they miss too: its
// pair loop (pushEdgePairs) has a prefetching body of the same shape,
// as has the CSR push (DESIGN.md §17, "Prefetching the push").

import (
	"ihtl/internal/faultinject"
	"ihtl/internal/graph"
	"ihtl/internal/sched"
	"ihtl/internal/unchecked"
)

// BlockLayout is how a flat engine walks one block's adjacency.
type BlockLayout uint8

const (
	// layoutByShape is the zero value of the test hook
	// EngineOptions.forceLayout: every block picks by row length.
	layoutByShape BlockLayout = iota
	// LayoutCSR walks rows through Index (push_flat.go, sparse.go).
	LayoutCSR
	// LayoutEdgeMajor walks edges through the adv stream.
	LayoutEdgeMajor
)

func (l BlockLayout) String() string {
	switch l {
	case LayoutCSR:
		return "csr"
	case LayoutEdgeMajor:
		return "edge-major"
	default:
		return "by-shape"
	}
}

const (
	// shortRowMean is THE layout threshold: a block whose mean row
	// length (edges ÷ rows, both read from Index) is below it is walked
	// edge-major. One loop-exit mispredict (≈ 15-20 cycles) amortised
	// over L edges costs more than the extra half byte per edge while L
	// is small, and below L = 4 that stream is also no larger than a
	// quarter of the 8 B/row index it stops reading; measured crossover
	// and derivation in DESIGN.md §17. social-flipped's flipped block
	// (mean 28) stays CSR, web-sparse's (2.65) and every sparse block
	// the benchmark builds (1.4-3) do not.
	shortRowMean = 4

	// advEscape marks an advance that does not fit the nibble; being the
	// largest nibble it is also the mask that extracts one.
	advEscape = 15

	// pullChunkRows is how many dst rows the edge-major pull clears
	// ahead of accumulating into them: 16 KiB of float64, half an L1d,
	// so the accumulates hit lines the clear just brought in.
	pullChunkRows = 2048
)

// pickLayout chooses a block's layout from its shape. Blocks with no
// edges have nothing to walk and stay CSR.
func pickLayout(index []int64) BlockLayout {
	rows := int64(len(index) - 1)
	if rows > 0 && index[rows] > 0 && index[rows] < shortRowMean*rows {
		return LayoutEdgeMajor
	}
	return LayoutCSR
}

// rowOfEdgeFrom returns the row holding edge ordinal e — the r with
// index[r] <= e < index[r+1] — given that it is row from or later. It
// gallops forward from from and bisects the bracket, so a hole costs
// O(log gap) reads of entries near the row the kernel stands on. e must
// be below index[len(index)-1].
//
//ihtl:noalloc
//ihtl:nobce
//ihtl:noescape
func rowOfEdgeFrom(index []int64, e int64, from int) int {
	// Invariant: index[lo] <= e < index[hi]; the last entry bounds e.
	lo, hi, last := from, from+1, len(index)-1
	for step := 1; hi < last && unchecked.At(index, hi) <= e; step <<= 1 {
		lo, hi = hi, min(hi+step, last)
	}
	for hi-lo > 1 {
		if mid := int(uint(lo+hi) >> 1); unchecked.At(index, mid) <= e {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// rowBeforeEdge returns the row a kernel must hold to start at edge
// ordinal e: the row of edge e-1, or row 0 ahead of the first edge.
func rowBeforeEdge(index []int64, e int64) int {
	if e <= 0 {
		return 0
	}
	return rowOfEdgeFrom(index, e-1, 0)
}

// advAt unpacks edge i's advance: the general accessor, for the odd
// edge at either end of a kernel's range.
//
//ihtl:noalloc
func advAt(adv []uint8, i int) int {
	return int(unchecked.At(adv, i>>1)>>(uint(i&1)<<2)) & advEscape
}

// advance moves a kernel from the row of edge i-1 to the row of edge
// i, whose stored advance is a.
//
//ihtl:noalloc
func advance(index []int64, i, row, a int) int {
	if a == advEscape {
		return rowOfEdgeFrom(index, int64(i), row+advEscape)
	}
	return row + a
}

// pullEdgePairs is the pair loop of pullRowsEdgeMajor and the Go twin of
// its assembly body, pullEdgePairsAsm. From an even edge j, while
// j+1 < end, it moves r by each edge's nibble and adds src[srcs[j]]
// into rows[r] — rows is dst from the block's first row on, and the
// accumulator is the add's first operand. It stops at the first escape
// nibble, which it leaves to the caller, and returns the edge it stopped
// at (end or end-1 when the pairs ran out) and the row of the edge
// before it.
//
//ihtl:noalloc
//ihtl:nobce
//ihtl:noescape
func pullEdgePairs(adv []uint8, srcs []graph.VID, src, rows []float64, j, end, r int) (int, int) {
	for ; j+1 < end; j += 2 {
		b := unchecked.At(adv, j>>1)
		if b&advEscape == advEscape {
			return j, r
		}
		r += int(b & advEscape)
		unchecked.AddAt(rows, r, unchecked.At(src, int(unchecked.At(srcs, j))))
		if b>>4 == advEscape {
			return j + 1, r
		}
		r += int(b >> 4)
		unchecked.AddAt(rows, r, unchecked.At(src, int(unchecked.At(srcs, j+1))))
	}
	return j, r
}

// fillAdv writes the non-zero nibbles of edges [eLo, eHi) — the first
// edge of every row that has one — from index; adv must arrive zeroed.
// Each call seeds itself with the row of the edge before eLo, so ranges
// that share no byte (eLo even) fill in parallel.
func fillAdv(adv []uint8, index []int64, eLo, eHi int64) {
	if eLo >= eHi {
		return
	}
	prev := rowBeforeEdge(index, eLo)
	r := rowOfEdgeFrom(index, eLo, prev)
	if index[r] < eLo {
		r++ // eLo is inside row r: its first edge is another range's
	}
	for ; index[r] < eHi; r++ {
		if i := index[r]; i < index[r+1] {
			adv[i>>1] |= uint8(min(r-prev, advEscape)) << (uint(i&1) << 2)
			prev = r
		}
	}
}

// buildAdv derives a block's adv stream on the pool: one contiguous
// range of bytes — edge pairs — per worker. A closed pool or a worker
// panic comes back as the error.
func buildAdv(pool *sched.Pool, index []int64) ([]uint8, error) {
	edges := index[len(index)-1]
	adv := make([]uint8, (edges+1)/2)
	err := pool.ForStaticCtx(nil, len(adv), func(w, lo, hi int) {
		faultinject.Fire(faultinject.SiteEngineLayout)
		fillAdv(adv, index, 2*int64(lo), min(2*int64(hi), edges))
	})
	return adv, err
}

// initLayouts picks each block's layout (or takes the test hook's) and
// builds the adv streams of the edge-major ones. Flat engines only: the
// packed kernels walk CSR, and the propagation-blocked sparse kernel
// walks its own transposed arrays.
func (e *Engine) initLayouts(force BlockLayout) error {
	ih := e.ih
	e.flipAdv = make([][]uint8, len(ih.Blocks))
	if e.varint {
		return nil
	}
	edgeMajor := func(index []int64) bool {
		if force != layoutByShape && len(index) > 1 && index[len(index)-1] > 0 {
			return force == LayoutEdgeMajor
		}
		return pickLayout(index) == LayoutEdgeMajor
	}
	var err error
	for b := range ih.Blocks {
		if idx := ih.Blocks[b].Index; edgeMajor(idx) {
			if e.flipAdv[b], err = buildAdv(e.pool, idx); err != nil {
				return err
			}
		}
	}
	sp := &ih.Sparse
	if e.sparseKernel == SparsePB || !edgeMajor(sp.Index) {
		return nil
	}
	if e.sparseAdv, err = buildAdv(e.pool, sp.Index); err != nil {
		return err
	}
	// Every sparse part starts mid-stream: it carries the row of the
	// edge before its first.
	e.partPrev = make([]int, len(e.sparseBounds)-1)
	for p := range e.partPrev {
		e.partPrev[p] = rowBeforeEdge(sp.Index, sp.Index[e.sparseBounds[p]])
	}
	return nil
}
