package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"ihtl/internal/compress"
	"ihtl/internal/faultinject"
	"ihtl/internal/graph"
	"ihtl/internal/sched"
)

// FlippedBlock holds the incoming edges of one block of B in-hubs in
// push (row-major, CSR-by-source) form. Sources are the vertices with
// new IDs [0, NumHubs+NumVWEH) — fringe vertices have no edges to
// hubs and are excluded, which both shrinks the topology and avoids
// streaming their vertex data (§3.1).
type FlippedBlock struct {
	// HubLo and HubHi bound the block's hub range in new IDs.
	HubLo, HubHi int
	// Index has NumPushSources+1 offsets into Dsts; the edges of
	// source s are Dsts[Index[s]:Index[s+1]].
	Index []int64
	// Dsts are hub destinations in new IDs (all in [HubLo, HubHi)),
	// sorted ascending within each source's run: the push kernels
	// accumulate per destination, so within-row order changes no
	// result bit, and sorted runs make the varint gap encoding
	// effective. Nil when only the varint form is resident (a v2
	// engine file loaded without materialising flat topology); Index
	// is always resident.
	Dsts []graph.VID
	// Sources is |FVᵢ|: the number of sources with at least one edge
	// into this block (the §3.3 block-admission statistic).
	Sources int
	// Enc is the chunked varint-gap encoding of Dsts, built lazily by
	// EnsureEncoded or loaded from a v2 engine file. Engines with
	// BlockEncoding varint traverse it instead of Dsts.
	Enc *compress.Chunked
}

// NumEdges returns the edge count of the block. Index-based, so it is
// exact whether the flat or only the encoded adjacency is resident.
func (b *FlippedBlock) NumEdges() int64 {
	if n := len(b.Index); n > 1 {
		return b.Index[n-1]
	}
	return 0
}

// SparseBlock holds the incoming edges of all non-hub vertices in
// pull (column-major, CSC-by-destination) form, over new IDs.
type SparseBlock struct {
	// DestLo is the first destination new ID (== NumHubs).
	DestLo int
	// Index has NumV-DestLo+1 offsets into Srcs.
	Index []int64
	// Srcs are source new IDs grouped by destination, sorted. Nil when
	// only the varint form is resident; Index is always resident.
	Srcs []graph.VID
	// Enc is the chunked varint-gap encoding of Srcs; see
	// FlippedBlock.Enc.
	Enc *compress.Chunked
}

// NumEdges returns the edge count of the sparse block. Index-based,
// like FlippedBlock.NumEdges.
func (s *SparseBlock) NumEdges() int64 {
	if n := len(s.Index); n > 1 {
		return s.Index[n-1]
	}
	return 0
}

// IHTL is the iHTL graph (Figure 3): the relabeling arrays, the
// flipped blocks, and the sparse block.
type IHTL struct {
	// NumV, NumE mirror the original graph.
	NumV int
	NumE int64
	// NumHubs, NumVWEH, NumFV partition the vertices; new IDs are
	// assigned in that order (hubs first — Figure 4).
	NumHubs, NumVWEH, NumFV int
	// HubsPerBlock is the resolved B.
	HubsPerBlock int
	// NewID maps original vertex IDs to iHTL IDs; OldID is the
	// inverse (OldID is the "relabeling array" of Figure 4).
	NewID, OldID []graph.VID
	// Blocks are the flipped blocks, in hub-rank order.
	Blocks []FlippedBlock
	// Sparse is the pull-direction remainder.
	Sparse SparseBlock
	// MinHubDegree is the smallest original in-degree among selected
	// hubs (Table 5).
	MinHubDegree int

	params Params
	// resident: the build flipped nothing because Params.resident held
	// (or ih was opened from the raw v2 file of such a build). It picks
	// the v2 stream format (WriteToV2).
	resident   bool
	buildStats BuildBreakdown

	// lazyMu serialises the lazy, idempotent derivations over the
	// graph's resident forms — EnsureEncoded, EnsureFlatTopology and
	// DropFlatTopology — so several engines may be constructed over one
	// IHTL from concurrent goroutines. The derived fields are immutable
	// once present; readers are ordered after their own constructor's
	// locked Ensure call, so the hot paths stay lock-free.
	lazyMu sync.Mutex
}

// NumPushSources returns the number of vertices traversed during push
// (hubs + VWEH).
func (ih *IHTL) NumPushSources() int { return ih.NumHubs + ih.NumVWEH }

// FlippedEdges returns the total edge count across flipped blocks.
func (ih *IHTL) FlippedEdges() int64 {
	var e int64
	for i := range ih.Blocks {
		e += ih.Blocks[i].NumEdges()
	}
	return e
}

// Vertex classes of §3.2. New IDs are assigned hub, VWEH, FV — in
// that order (Figure 4).
const (
	classFV = iota
	classVWEH
	classHub
)

// Build constructs the iHTL graph of g per §3.2-3.3, sequentially.
func Build(g *graph.Graph, p Params) (*IHTL, error) {
	return BuildWith(g, p, nil)
}

// BuildWith is Build parallelised on pool: hub ranking, vertex
// classification, relabeling and block construction all run across
// the pool's workers, producing output bit-for-bit identical to the
// sequential Build. A nil pool (or a one-worker pool) selects the
// sequential path. The phase breakdown of either path is available
// through (*IHTL).BuildStats afterwards.
func BuildWith(g *graph.Graph, p Params, pool *sched.Pool) (*IHTL, error) {
	return BuildWithCtx(nil, g, p, pool)
}

// errCoreBuildAborted is the placeholder error of a phase check that
// observed the pool's abort flag; the deferred region close replaces
// it with the underlying cause (ctx.Err() or a *sched.PanicError).
var errCoreBuildAborted = errors.New("core: build aborted")

// BuildWithCtx is BuildWith with cancellation and panic isolation:
// the whole rank → select → relabel → blocks pipeline runs inside one
// fallible pool region, so cancelling ctx stops in-flight passes at
// their next chunk claim and returns ctx.Err() between phases, and a
// panic in any pool worker comes back as a *sched.PanicError instead
// of crashing the process. ctx may be nil (no cancellation); a nil or
// single-worker pool runs sequentially with the same between-phase
// ctx checks.
func BuildWithCtx(ctx context.Context, g *graph.Graph, p Params, pool *sched.Pool) (ih *IHTL, err error) {
	start := time.Now()
	if g == nil {
		return nil, fmt.Errorf("core: nil graph")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rp := p.withDefaults()
	if pool != nil && pool.Workers() <= 1 {
		pool = nil
	}
	if pool != nil {
		end, ferr := pool.Fallible(ctx)
		if ferr != nil {
			return nil, ferr
		}
		defer func() {
			if rerr := end(); rerr != nil {
				ih, err = nil, rerr
			}
		}()
	}
	check := func() error {
		if pool != nil && pool.Aborted() {
			return errCoreBuildAborted
		}
		if ctx != nil {
			return ctx.Err()
		}
		return nil
	}
	ih = &IHTL{NumV: g.NumV, NumE: g.NumE, HubsPerBlock: rp.HubsPerBlock, params: rp, resident: p.resident(g.NumV)}
	if g.NumV == 0 {
		ih.NewID = []graph.VID{}
		ih.OldID = []graph.VID{}
		ih.Sparse.Index = []int64{0}
		ih.buildStats.Wall = time.Since(start)
		return ih, nil
	}
	clk := make([]buildClock, sched.Parts(pool))

	t := time.Now()
	var ranked []graph.VID
	if pool == nil {
		ranked = rankByInDegree(g)
	} else {
		ranked = rankByInDegreePar(g, pool, clk)
	}
	ih.buildStats.Rank = time.Since(t)
	if err := check(); err != nil {
		return nil, err
	}

	t = time.Now()
	var numHubs, blocks, minHubDeg int
	switch {
	case ih.resident:
		// No hub, no flipped block: relabel keeps every vertex in its
		// class-FV original order and the sparse block takes every edge.
	case rp.FastSelect:
		numHubs, blocks, minHubDeg = selectHubsFast(g, ranked, rp)
	default:
		numHubs, blocks, minHubDeg = selectHubs(g, ranked, rp)
	}
	ih.buildStats.Select = time.Since(t)
	ih.MinHubDegree = minHubDeg
	ih.NumHubs = numHubs
	if err := check(); err != nil {
		return nil, err
	}

	t = time.Now()
	relabel(g, ih, ranked, rp, pool, clk)
	ih.buildStats.Relabel = time.Since(t)
	if err := check(); err != nil {
		return nil, err
	}

	t = time.Now()
	buildFlippedBlocks(g, ih, blocks, pool, clk)
	if err := check(); err != nil {
		return nil, err
	}
	buildSparseBlock(g, ih, pool, clk)
	ih.buildStats.Blocks = time.Since(t)
	if err := check(); err != nil {
		return nil, err
	}

	if got := ih.FlippedEdges() + ih.Sparse.NumEdges(); got != g.NumE {
		return nil, fmt.Errorf("core: internal error: blocks cover %d edges, want %d", got, g.NumE)
	}
	if pool != nil { // busy time is a parallel-build statistic
		for i := range clk {
			ih.buildStats.RankBusy += clk[i].rank
			ih.buildStats.RelabelBusy += clk[i].relabel
			ih.buildStats.BlocksBusy += clk[i].blocks
		}
	}
	ih.buildStats.Wall = time.Since(start)
	return ih, nil
}

// relabel classifies every vertex (hub / VWEH / FV) and fills the
// NewID/OldID arrays (Figure 4): hubs in rank order, then VWEH, then
// FV — each class in original order (§3.2), or reordered under the
// DegreeSortClasses / SparseOrder ablations.
func relabel(g *graph.Graph, ih *IHTL, ranked []graph.VID, rp Params, pool *sched.Pool, clk []buildClock) {
	numHubs := ih.NumHubs
	class := make([]uint8, g.NumV)
	ih.NewID = make([]graph.VID, g.NumV)
	ih.OldID = make([]graph.VID, g.NumV)

	// Classify. The sequential pass walks the in-edges of every hub;
	// the parallel pass flips the direction — each worker scans the
	// out-edges of its own vertices for a hub destination — so every
	// class[v] has exactly one writer. The two define the same VWEH
	// set: s has an edge into some hub h iff h appears in Out(s).
	if pool == nil {
		for i := 0; i < numHubs; i++ {
			class[ranked[i]] = classHub
		}
		for i := 0; i < numHubs; i++ {
			for _, s := range g.In(ranked[i]) {
				if class[s] == classFV {
					class[s] = classVWEH
				}
			}
		}
	} else {
		isHub := make([]bool, g.NumV)
		pool.ForStatic(numHubs, func(worker, lo, hi int) {
			faultinject.Fire(faultinject.SiteBuildFill)
			t := time.Now()
			markHubs(isHub, ranked, lo, hi)
			c := &clk[worker]
			c.relabel += time.Since(t)
		})
		pool.ForDynamic(g.NumV, 1024, func(worker, lo, hi int) {
			t := time.Now()
			classifyRange(g, isHub, class, lo, hi)
			c := &clk[worker]
			c.relabel += time.Since(t)
		})
	}

	// Hubs take new IDs [0, numHubs) in rank order.
	if pool == nil {
		for i := 0; i < numHubs; i++ {
			ih.OldID[i] = ranked[i]
			ih.NewID[ranked[i]] = graph.VID(i)
		}
	} else {
		pool.ForStatic(numHubs, func(worker, lo, hi int) {
			faultinject.Fire(faultinject.SiteBuildFill)
			t := time.Now()
			assignHubs(ih.NewID, ih.OldID, ranked, lo, hi)
			c := &clk[worker]
			c.relabel += time.Since(t)
		})
	}

	// rankWithin orders class members under the SparseOrder extension
	// (§6: apply e.g. Rabbit-Order to the sparse block): nil means
	// original order.
	var rankWithin []graph.VID
	if rp.SparseOrder != nil {
		rankWithin = rp.SparseOrder.Permutation(g)
	}
	if pool != nil && !rp.DegreeSortClasses && rankWithin == nil {
		ih.NumVWEH = assignClassPar(ih, class, classVWEH, numHubs, pool, clk)
		ih.NumFV = assignClassPar(ih, class, classFV, numHubs+ih.NumVWEH, pool, clk)
		return
	}
	next := numHubs
	assignClass := func(want uint8) int {
		members := make([]graph.VID, 0)
		for v := 0; v < g.NumV; v++ {
			if class[v] == want {
				members = append(members, graph.VID(v))
			}
		}
		switch {
		case rp.DegreeSortClasses:
			slices.SortFunc(members, func(a, b graph.VID) int {
				if c := cmp.Compare(g.Degree(b), g.Degree(a)); c != 0 {
					return c
				}
				return cmp.Compare(a, b)
			})
		case rankWithin != nil:
			slices.SortFunc(members, func(a, b graph.VID) int {
				return cmp.Compare(rankWithin[a], rankWithin[b])
			})
		}
		for _, v := range members {
			ih.OldID[next] = v
			ih.NewID[v] = graph.VID(next)
			next++
		}
		return len(members)
	}
	ih.NumVWEH = assignClass(classVWEH)
	ih.NumFV = assignClass(classFV)
}

//ihtl:noalloc
func markHubs(isHub []bool, ranked []graph.VID, lo, hi int) {
	for i := lo; i < hi; i++ {
		isHub[ranked[i]] = true
	}
}

//ihtl:noalloc
func classifyRange(g *graph.Graph, isHub []bool, class []uint8, lo, hi int) {
	for v := lo; v < hi; v++ {
		if isHub[v] {
			class[v] = classHub
			continue
		}
		cl := uint8(classFV)
		for _, d := range g.Out(graph.VID(v)) {
			if isHub[d] {
				cl = classVWEH
				break
			}
		}
		class[v] = cl
	}
}

//ihtl:noalloc
func assignHubs(newID, oldID, ranked []graph.VID, lo, hi int) {
	for i := lo; i < hi; i++ {
		v := ranked[i]
		oldID[i] = v
		newID[v] = graph.VID(i)
	}
}

// assignClassPar gives the members of one class their new IDs
// starting at base, in ascending original-ID order — the same order
// as the sequential scan — via a per-worker count/prefix/fill pass.
func assignClassPar(ih *IHTL, class []uint8, want uint8, base int, pool *sched.Pool, clk []buildClock) int {
	w := pool.Workers()
	counts := make([]int64, w+1)
	n := len(class)
	pool.ForStatic(n, func(worker, lo, hi int) {
		faultinject.Fire(faultinject.SiteBuildFill)
		t := time.Now()
		counts[worker+1] = countClass(class[lo:hi], want)
		c := &clk[worker]
		c.relabel += time.Since(t)
	})
	for i := 0; i < w; i++ {
		counts[i+1] += counts[i]
	}
	pool.ForStatic(n, func(worker, lo, hi int) {
		faultinject.Fire(faultinject.SiteBuildFill)
		t := time.Now()
		fillClass(class, lo, hi, want, base+int(counts[worker]), ih.NewID, ih.OldID)
		c := &clk[worker]
		c.relabel += time.Since(t)
	})
	return int(counts[w])
}

//ihtl:noalloc
func countClass(class []uint8, want uint8) int64 {
	var n int64
	for _, c := range class {
		if c == want {
			n++
		}
	}
	return n
}

//ihtl:noalloc
func fillClass(class []uint8, lo, hi int, want uint8, next int, newID, oldID []graph.VID) {
	for v := lo; v < hi; v++ {
		if class[v] == want {
			oldID[next] = graph.VID(v)
			newID[v] = graph.VID(next)
			next++
		}
	}
}

// rankByInDegree returns vertex IDs sorted by descending in-degree,
// ties broken by ascending ID for determinism. Degrees are bounded by
// NumE, so an O(V + maxDegree) counting sort replaces the previous
// O(V log V) comparison sort: bucket starts are laid out from the
// highest degree down, and an ascending-ID scatter preserves the tie
// order.
func rankByInDegree(g *graph.Graph) []graph.VID {
	n := g.NumV
	ranked := make([]graph.VID, n)
	maxDeg := maxInDegree(g, 0, n)
	counts := make([]int64, maxDeg+1)
	countDegrees(g, 0, n, counts)
	descendingStarts(counts)
	scatterRank(g, 0, n, counts, ranked)
	return ranked
}

// rankByInDegreePar is rankByInDegree across the pool: per-worker
// degree histograms over contiguous vertex ranges, a descending-degree
// prefix over the folded totals, per-(degree,worker) scatter cursors,
// and a per-worker scatter. Workers own ascending vertex ranges and
// scatter ascending, so ties land in ascending-ID order — bit-for-bit
// the sequential result.
func rankByInDegreePar(g *graph.Graph, pool *sched.Pool, clk []buildClock) []graph.VID {
	n := g.NumV
	w := pool.Workers()
	maxs := make([]int, w)
	pool.ForStatic(n, func(worker, lo, hi int) {
		faultinject.Fire(faultinject.SiteBuildFill)
		t := time.Now()
		maxs[worker] = maxInDegree(g, lo, hi)
		c := &clk[worker]
		c.rank += time.Since(t)
	})
	maxDeg := 0
	for _, m := range maxs {
		if m > maxDeg {
			maxDeg = m
		}
	}
	k := maxDeg + 1
	counts := make([]int64, w*k)
	pool.ForStatic(n, func(worker, lo, hi int) {
		faultinject.Fire(faultinject.SiteBuildFill)
		t := time.Now()
		countDegrees(g, lo, hi, counts[worker*k:(worker+1)*k])
		c := &clk[worker]
		c.rank += time.Since(t)
	})
	// Fold per-worker histograms into per-degree totals.
	tot := make([]int64, k)
	pool.ForStatic(k, func(worker, lo, hi int) {
		faultinject.Fire(faultinject.SiteBuildFill)
		t := time.Now()
		for d := lo; d < hi; d++ {
			var s int64
			for i := 0; i < w; i++ {
				s += counts[i*k+d]
			}
			tot[d] = s
		}
		c := &clk[worker]
		c.rank += time.Since(t)
	})
	descendingStarts(tot)
	// Worker i's run of degree d starts after the runs of workers < i.
	pool.ForStatic(k, func(worker, lo, hi int) {
		faultinject.Fire(faultinject.SiteBuildFill)
		t := time.Now()
		for d := lo; d < hi; d++ {
			off := tot[d]
			for i := 0; i < w; i++ {
				c := counts[i*k+d]
				counts[i*k+d] = off
				off += c
			}
		}
		c := &clk[worker]
		c.rank += time.Since(t)
	})
	ranked := make([]graph.VID, n)
	pool.ForStatic(n, func(worker, lo, hi int) {
		faultinject.Fire(faultinject.SiteBuildFill)
		t := time.Now()
		scatterRank(g, lo, hi, counts[worker*k:(worker+1)*k], ranked)
		c := &clk[worker]
		c.rank += time.Since(t)
	})
	return ranked
}

//ihtl:noalloc
func maxInDegree(g *graph.Graph, lo, hi int) int {
	m := 0
	for v := lo; v < hi; v++ {
		if d := g.InDegree(graph.VID(v)); d > m {
			m = d
		}
	}
	return m
}

//ihtl:noalloc
func countDegrees(g *graph.Graph, lo, hi int, counts []int64) {
	for v := lo; v < hi; v++ {
		counts[g.InDegree(graph.VID(v))]++
	}
}

// descendingStarts turns per-degree counts into bucket start offsets
// for a descending-degree layout: counts[d] becomes the number of
// vertices with degree above d.
//
//ihtl:noalloc
func descendingStarts(counts []int64) {
	var off int64
	for d := len(counts) - 1; d >= 0; d-- {
		c := counts[d]
		counts[d] = off
		off += c
	}
}

//ihtl:noalloc
func scatterRank(g *graph.Graph, lo, hi int, cursor []int64, ranked []graph.VID) {
	for v := lo; v < hi; v++ {
		d := g.InDegree(graph.VID(v))
		ranked[cursor[d]] = graph.VID(v)
		cursor[d]++
	}
}

// selectHubs implements §3.3: tentative blocks of B top-in-degree
// vertices are admitted while the i-th block's source population
// |FVᵢ| exceeds FVThreshold·|FV₁|. Returns the hub count, the number
// of admitted blocks, and the minimum hub in-degree.
func selectHubs(g *graph.Graph, ranked []graph.VID, p Params) (numHubs, blocks, minDeg int) {
	b := p.HubsPerBlock
	seen := make([]bool, g.NumV) // FV-membership marker, reused per block
	var fv1 int
	for blk := 0; blk < p.MaxBlocks; blk++ {
		lo := blk * b
		if lo >= g.NumV {
			break
		}
		hi := lo + b
		if hi > g.NumV {
			hi = g.NumV
		}
		// Degree floor: stop at the first block whose top vertex is
		// already below the hub threshold.
		if g.InDegree(ranked[lo]) < p.MinHubDegree {
			break
		}
		// |FVᵢ|: distinct sources with an edge into this block's
		// hubs ("a pass over in-edges ... to mark the FV members and
		// one other pass ... to count", §3.3).
		sources := 0
		var marked []graph.VID
		for i := lo; i < hi; i++ {
			if g.InDegree(ranked[i]) < p.MinHubDegree {
				// Trailing low-degree vertices within an otherwise
				// admitted block are still hubs only if the block is
				// admitted as a whole; they contribute no sources.
				continue
			}
			for _, s := range g.In(ranked[i]) {
				if !seen[s] {
					seen[s] = true
					marked = append(marked, s)
					sources++
				}
			}
		}
		for _, s := range marked {
			seen[s] = false
		}
		if blk == 0 {
			if sources == 0 {
				break
			}
			fv1 = sources
		} else if float64(sources) <= p.FVThreshold*float64(fv1) {
			break
		}
		// Trim trailing sub-threshold vertices from the last block.
		for hi > lo && g.InDegree(ranked[hi-1]) < p.MinHubDegree {
			hi--
		}
		numHubs = hi
		blocks++
		if hi >= g.NumV {
			break
		}
	}
	if numHubs > 0 {
		// ranked is sorted by descending in-degree, so the last
		// admitted hub carries the minimum (Table 5's "Min. Hub
		// Degree").
		minDeg = g.InDegree(ranked[numHubs-1])
	}
	return numHubs, blocks, minDeg
}

// selectHubsFast implements the §6 lower-complexity variant: compute
// FV₁ once (the distinct sources of block 1's in-edges), then a
// single pass over the OUT-edges of FV₁ members marks, per tentative
// block, which of those sources reach it — estimating every |FVᵢ| at
// once instead of one in-edge pass per block. Sources outside FV₁
// are not counted, so the estimate is a lower bound and the block
// count can only be smaller than the exact §3.3 result.
func selectHubsFast(g *graph.Graph, ranked []graph.VID, p Params) (numHubs, blocks, minDeg int) {
	b := p.HubsPerBlock
	maxBlocks := p.MaxBlocks
	if maxBlocks > 64 {
		maxBlocks = 64 // bitset width; the paper's graphs need <= 16
	}
	if g.NumV == 0 || g.InDegree(ranked[0]) < p.MinHubDegree {
		return 0, 0, 0
	}
	// Candidate block of each vertex, by rank.
	blockOf := make([]int8, g.NumV)
	for i := range blockOf {
		blockOf[i] = -1
	}
	limit := maxBlocks * b
	if limit > g.NumV {
		limit = g.NumV
	}
	for i := 0; i < limit; i++ {
		if g.InDegree(ranked[i]) < p.MinHubDegree {
			limit = i
			break
		}
		blockOf[ranked[i]] = int8(i / b)
	}
	if limit == 0 {
		return 0, 0, 0
	}

	// FV₁: distinct sources with an edge into block 1.
	hi1 := b
	if hi1 > limit {
		hi1 = limit
	}
	seen := make([]bool, g.NumV)
	var fv1 []graph.VID
	for i := 0; i < hi1; i++ {
		for _, s := range g.In(ranked[i]) {
			if !seen[s] {
				seen[s] = true
				fv1 = append(fv1, s)
			}
		}
	}
	if len(fv1) == 0 {
		return 0, 0, 0
	}
	// One pass over FV₁'s out-edges: per-source block bitsets
	// aggregated into per-block distinct-source counts.
	counts := make([]int, (limit+b-1)/b)
	for _, s := range fv1 {
		var mask uint64
		for _, d := range g.Out(s) {
			if blk := blockOf[d]; blk >= 0 {
				mask |= 1 << uint(blk)
			}
		}
		for blk := 0; mask != 0; blk++ {
			if mask&1 != 0 {
				counts[blk]++
			}
			mask >>= 1
		}
	}
	threshold := p.FVThreshold * float64(counts[0])
	for blk := 0; blk < len(counts); blk++ {
		if blk > 0 && float64(counts[blk]) <= threshold {
			break
		}
		hi := (blk + 1) * b
		if hi > limit {
			hi = limit
		}
		numHubs = hi
		blocks++
	}
	if numHubs > 0 {
		minDeg = g.InDegree(ranked[numHubs-1])
	}
	return numHubs, blocks, minDeg
}

// blockScatter is sched.ScatterByKey over the row parts cut at bounds,
// with the build's fault site and busy clock around every part's walk.
// Each block of the iHTL graph is a transposition: rows are visited in
// ascending order, so every list of the result is ascending by
// construction — no row is ever sorted — and the same for every worker
// count.
func blockScatter(pool *sched.Pool, numKeys int, bounds []int, clk []buildClock, walk func(lo, hi int, cursor []int64, out []graph.VID)) ([]int64, []graph.VID) {
	return sched.ScatterByKey(pool, numKeys, len(bounds)-1, func(worker, part int, cursor []int64, out []graph.VID) {
		faultinject.Fire(faultinject.SiteBuildFill)
		t := time.Now()
		walk(bounds[part], bounds[part+1], cursor, out)
		c := &clk[worker]
		c.blocks += time.Since(t)
	})
}

// transposeRelabelled transposes the original adjacency (adjIndex,
// adjNbrs) of the vertices with new IDs [rowLo, rowHi) into new-ID
// space: row r holds the neighbours of OldID[r], and each neighbour u
// is listed under key NewID[u] with value r.
func transposeRelabelled(ih *IHTL, adjIndex []int64, adjNbrs []graph.VID, rowLo, rowHi, numKeys int, pool *sched.Pool, clk []buildClock) ([]int64, []graph.VID) {
	rows := ih.OldID[rowLo:rowHi]
	bounds := sched.EdgeBalancedPartsList(adjIndex, rows, sched.Parts(pool))
	return blockScatter(pool, numKeys, bounds, clk, func(lo, hi int, cursor []int64, out []graph.VID) {
		scatterRelabelled(adjIndex, adjNbrs, rows[lo:hi], ih.NewID, graph.VID(rowLo+lo), cursor, out)
	})
}

// scatterRelabelled is the ScatterByKey walk of transposeRelabelled —
// sched.ScatterRows with rows and keys relabelled on the fly — over
// the consecutive rows starting at new ID r. A nil out counts, a
// non-nil out places.
//
//ihtl:noalloc
func scatterRelabelled(adjIndex []int64, adjNbrs, rows, newID []graph.VID, r graph.VID, cursor []int64, out []graph.VID) {
	for _, old := range rows {
		for _, u := range adjNbrs[adjIndex[old]:adjIndex[old+1]] {
			k := newID[u]
			c := cursor[k]
			if out != nil {
				out[c] = r
			}
			cursor[k] = c + 1
		}
		r++
	}
}

// buildFlippedBlocks creates the per-block push CSR — the edges into
// each block's hubs, grouped by source (§3.2) — as the transpose of the
// hubs' in-lists: hubs are visited in ascending new-ID order, so every
// source's run of hub destinations is ascending, which the gap encoding
// and the hub-buffer access pattern want. Every in-neighbour of a hub
// is a hub or a VWEH vertex, so all keys fall in [0, NumPushSources).
func buildFlippedBlocks(g *graph.Graph, ih *IHTL, numBlocks int, pool *sched.Pool, clk []buildClock) {
	if numBlocks == 0 || ih.NumHubs == 0 {
		return
	}
	nsrc := ih.NumPushSources()
	ih.Blocks = make([]FlippedBlock, numBlocks)
	for blk := range ih.Blocks {
		fb := &ih.Blocks[blk]
		fb.HubLo = blk * ih.HubsPerBlock
		fb.HubHi = min(fb.HubLo+ih.HubsPerBlock, ih.NumHubs)
		fb.Index, fb.Dsts = transposeRelabelled(ih, g.InIndex, g.InNbrs, fb.HubLo, fb.HubHi, nsrc, pool, clk)
	}
	sched.ForParts(pool, numBlocks, func(worker, blk int) {
		faultinject.Fire(faultinject.SiteBuildFill)
		t := time.Now()
		fb := &ih.Blocks[blk]
		fb.Sources = countBlockSources(fb.Index, nsrc)
		c := &clk[worker]
		c.blocks += time.Since(t)
	})
}

//ihtl:noalloc
func countBlockSources(index []int64, nsrc int) int {
	n := 0
	for s := 0; s < nsrc; s++ {
		if index[s+1] > index[s] {
			n++
		}
	}
	return n
}

// buildSparseBlock creates the pull CSC over non-hub destinations
// (§3.2) by transposing their in-lists twice, which touches the sparse
// edges only: non-hub destinations in ascending new-ID order → every
// source's list of them, then sources in ascending new-ID order →
// every destination's source list, ascending.
func buildSparseBlock(g *graph.Graph, ih *IHTL, pool *sched.Pool, clk []buildClock) {
	sp := &ih.Sparse
	sp.DestLo = ih.NumHubs
	bySrc, dsts := transposeRelabelled(ih, g.InIndex, g.InNbrs, sp.DestLo, ih.NumV, ih.NumV, pool, clk)
	bounds := sched.EdgeBalancedParts(bySrc, sched.Parts(pool))
	n := ih.NumV - sp.DestLo
	sp.Index, sp.Srcs = blockScatter(pool, n, bounds, clk, func(lo, hi int, cursor []int64, out []graph.VID) {
		sched.ScatterRows(bySrc, dsts, lo, hi, graph.VID(sp.DestLo), cursor, out)
	})
}
