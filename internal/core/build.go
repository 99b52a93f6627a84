package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"time"

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
	// result bit, and sorted runs are what the v2 file's packed gap
	// rows store.
	Dsts []graph.VID
	// Sources is |FVᵢ|: the number of sources with at least one edge
	// into this block (the §3.3 block-admission statistic).
	Sources int
}

// NumEdges returns the edge count of the block, read off Index.
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
	// Srcs are source new IDs grouped by destination, sorted.
	Srcs []graph.VID
}

// NumEdges returns the edge count of the sparse block, read off Index.
func (s *SparseBlock) NumEdges() int64 {
	if n := len(s.Index); n > 1 {
		return s.Index[n-1]
	}
	return 0
}

// IHTL is the iHTL graph (Figure 3): the relabeling arrays, the
// flipped blocks, and the sparse block. It holds one topology form,
// the flat one, and nothing writes it after Build or open: engines only
// read it, so any number of them may be built over one IHTL from
// concurrent goroutines.
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

// Build constructs the iHTL graph of g per §3.2-3.3 on one worker: it
// is BuildWith with a nil pool.
func Build(g *graph.Graph, p Params) (*IHTL, error) {
	return BuildWith(g, p, nil)
}

// BuildWith is Build parallelised on pool: hub ranking, vertex
// classification, relabeling and block construction all run across
// the pool's workers, producing output bit-for-bit the same for every
// worker count. A nil pool is one worker: the build opens a private
// one-worker pool and closes it before returning. The phase breakdown
// is available through (*IHTL).BuildStats afterwards.
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
// of crashing the process. ctx may be nil (no cancellation). A nil
// pool runs the same passes on a private one-worker pool, closed on
// every return, with the same failure contract.
func BuildWithCtx(ctx context.Context, g *graph.Graph, p Params, pool *sched.Pool) (ih *IHTL, err error) {
	start := time.Now()
	if g == nil {
		return nil, fmt.Errorf("core: nil graph")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rp := p.withDefaults()
	if pool == nil {
		pool = sched.NewPool(1)
		defer pool.Close()
	}
	end, err := pool.Fallible(ctx)
	if err != nil {
		return nil, err
	}
	defer func() {
		if rerr := end(); rerr != nil {
			ih, err = nil, rerr
		}
	}()
	check := func() error {
		if pool.Aborted() {
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
	clk := make([]buildClock, pool.Workers())

	t := time.Now()
	ranked := rankByInDegree(g, pool, clk)
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
		numHubs, blocks, minHubDeg = selectHubs(g, ranked, rp, pool)
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
	for i := range clk {
		ih.buildStats.RankBusy += clk[i].rank
		ih.buildStats.RelabelBusy += clk[i].relabel
		ih.buildStats.BlocksBusy += clk[i].blocks
	}
	ih.buildStats.Wall = time.Since(start)
	return ih, nil
}

// relabel classifies every vertex (hub / VWEH / FV) and fills the
// NewID/OldID arrays (Figure 4): hubs in rank order, then VWEH, then
// FV — each class in original order (§3.2), then reordered under the
// DegreeSortClasses / SparseOrder ablations.
func relabel(g *graph.Graph, ih *IHTL, ranked []graph.VID, rp Params, pool *sched.Pool, clk []buildClock) {
	numHubs := ih.NumHubs
	class := make([]uint8, g.NumV)
	ih.NewID = make([]graph.VID, g.NumV)
	ih.OldID = make([]graph.VID, g.NumV)

	// Classify: each worker scans the out-edges of its own vertices for
	// a hub destination, so every class[v] has exactly one writer. s has
	// an edge into some hub h iff h appears in Out(s), so this is the
	// VWEH set of §3.2, the sources of the hubs' in-edges.
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

	// Hubs take new IDs [0, numHubs) in rank order.
	pool.ForStatic(numHubs, func(worker, lo, hi int) {
		faultinject.Fire(faultinject.SiteBuildFill)
		t := time.Now()
		assignHubs(ih.NewID, ih.OldID, ranked, lo, hi)
		c := &clk[worker]
		c.relabel += time.Since(t)
	})

	ih.NumVWEH = assignClassPar(ih, class, classVWEH, numHubs, pool, clk)
	ih.NumFV = assignClassPar(ih, class, classFV, numHubs+ih.NumVWEH, pool, clk)
	reorderClasses(g, ih, rp)
}

// reorderClasses applies the DegreeSortClasses / SparseOrder ablations
// after the class assignment: the VWEH and FV ranges of OldID, each in
// ascending original ID, are sorted by the ablation's key and the
// matching NewID entries rewritten. Both keys are total orders (the
// degree sort breaks ties by ID, SparseOrder is a permutation), so the
// result does not depend on the order the ranges held before.
func reorderClasses(g *graph.Graph, ih *IHTL, rp Params) {
	var compare func(a, b graph.VID) int
	switch {
	case rp.DegreeSortClasses:
		compare = func(a, b graph.VID) int {
			if c := cmp.Compare(g.Degree(b), g.Degree(a)); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		}
	case rp.SparseOrder != nil:
		// rankWithin orders class members under the SparseOrder
		// extension (§6: apply e.g. Rabbit-Order to the sparse block).
		rankWithin := rp.SparseOrder.Permutation(g)
		compare = func(a, b graph.VID) int {
			return cmp.Compare(rankWithin[a], rankWithin[b])
		}
	default:
		return
	}
	lo := ih.NumHubs
	for _, hi := range []int{lo + ih.NumVWEH, g.NumV} {
		members := ih.OldID[lo:hi]
		slices.SortFunc(members, compare)
		for i, v := range members {
			ih.NewID[v] = graph.VID(lo + i)
		}
		lo = hi
	}
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
// starting at base, in ascending original-ID order, via a per-worker
// count/prefix/fill pass.
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
// NumE, so an O(V + maxDegree) counting sort runs across the pool:
// per-worker degree histograms over contiguous vertex ranges, a
// descending-degree prefix over the folded totals, per-(degree,worker)
// scatter cursors, and a per-worker scatter. Workers own ascending
// vertex ranges and scatter ascending, so ties land in ascending-ID
// order for every worker count.
func rankByInDegree(g *graph.Graph, pool *sched.Pool, clk []buildClock) []graph.VID {
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
//
// Blocks are tried one after the other; inside a block the count runs
// on the pool: every part ORs the in-neighbours of its edge-balanced
// share of the block's hubs into its own bitset over all vertices, and
// the bitsets are then folded, cleared and popcounted per word range.
// |FVᵢ| is an exact integer, so the admission is the same for every
// worker count.
func selectHubs(g *graph.Graph, ranked []graph.VID, p Params, pool *sched.Pool) (numHubs, blocks, minDeg int) {
	b := p.HubsPerBlock
	nparts := pool.Workers()
	nw := (g.NumV + 63) / 64
	var sets []uint64 // nparts bitsets of nw words, all zero between blocks
	counts := make([]int, nparts)
	var fv1 int
	for blk := 0; blk < p.MaxBlocks; blk++ {
		lo := blk * b
		if lo >= g.NumV {
			break
		}
		hi := min(lo+b, g.NumV)
		// Degree floor: stop at the first block whose top vertex is
		// already below the hub threshold.
		if g.InDegree(ranked[lo]) < p.MinHubDegree {
			break
		}
		// Trailing sub-threshold vertices are still hubs if the block is
		// admitted, but they contribute no sources, and an admitted last
		// block is trimmed to exclude them. ranked descends in in-degree,
		// so they are a suffix.
		for hi > lo && g.InDegree(ranked[hi-1]) < p.MinHubDegree {
			hi--
		}
		if sets == nil {
			sets = make([]uint64, nparts*nw)
		}
		// |FVᵢ|: distinct sources with an edge into this block's hubs
		// ("a pass over in-edges ... to mark the FV members and one other
		// pass ... to count", §3.3).
		hubs := ranked[lo:hi]
		bounds := sched.EdgeBalancedPartsList(g.InIndex, hubs, nparts)
		sched.ForParts(pool, nparts, func(_, part int) {
			faultinject.Fire(faultinject.SiteBuildFill)
			markSources(g.InIndex, g.InNbrs, hubs[bounds[part]:bounds[part+1]], sets[part*nw:(part+1)*nw])
		})
		sched.ForParts(pool, nparts, func(_, part int) {
			faultinject.Fire(faultinject.SiteBuildFill)
			wlo, whi := sched.SplitRange(nw, nparts, part)
			counts[part] = foldSources(sets, nw, wlo, whi)
		})
		sources := 0
		for _, n := range counts {
			sources += n
		}
		if blk == 0 {
			if sources == 0 {
				break
			}
			fv1 = sources
		} else if float64(sources) <= p.FVThreshold*float64(fv1) {
			break
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

// markSources sets the bit of every in-neighbour of hubs: one word OR
// per edge, no branch.
//
//ihtl:noalloc
func markSources(inIndex []int64, inNbrs, hubs []graph.VID, set []uint64) {
	for _, h := range hubs {
		for _, s := range inNbrs[inIndex[h]:inIndex[h+1]] {
			set[s>>6] |= 1 << (s & 63)
		}
	}
}

// foldSources ORs words [lo, hi) of every part's bitset (sets holds
// them back to back, nw words each), clears them for the next block,
// and returns the number of set bits.
//
//ihtl:noalloc
func foldSources(sets []uint64, nw, lo, hi int) int {
	n := 0
	for w := lo; w < hi; w++ {
		var x uint64
		for p := w; p < len(sets); p += nw {
			x |= sets[p]
			sets[p] = 0
		}
		n += bits.OnesCount64(x)
	}
	return n
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

// transposeRelabelled transposes the original adjacency (adjIndex,
// adjNbrs) of the vertices with new IDs [rowLo, rowHi) into new-ID
// space: row r holds the neighbours of OldID[r], and each neighbour u
// is listed under key NewID[u] with value r. It is sched.ScatterByKey
// over edge-balanced row parts, with the build's fault site and busy
// clock around every part's walk. Rows are visited in ascending order,
// so every list of the result is ascending by construction — no row is
// ever sorted — and the same for every worker count.
func transposeRelabelled(ih *IHTL, adjIndex []int64, adjNbrs []graph.VID, rowLo, rowHi, numKeys int, pool *sched.Pool, clk []buildClock) ([]int64, []graph.VID) {
	rows := ih.OldID[rowLo:rowHi]
	bounds := sched.EdgeBalancedPartsList(adjIndex, rows, pool.Workers())
	return sched.ScatterByKey(pool, numKeys, len(bounds)-1, func(worker, part int, cursor []int64, out []graph.VID) {
		faultinject.Fire(faultinject.SiteBuildFill)
		t := time.Now()
		lo, hi := bounds[part], bounds[part+1]
		scatterRelabelled(adjIndex, adjNbrs, rows[lo:hi], ih.NewID, graph.VID(rowLo+lo), cursor, out)
		c := &clk[worker]
		c.blocks += time.Since(t)
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

// buildSparseBlock gathers the pull CSC over non-hub destinations
// (§3.2): Index holds the in-degrees of OldID[DestLo:], prefix-summed,
// and row r lists NewID[u] for every in-neighbour u of OldID[DestLo+r],
// sorted in place. Hubs are a prefix of the descending in-degree
// ranking, so on a graph with hubs no row is longer than MinHubDegree
// (7 on the 1.5 M-page web graph, 15 on R-MAT 20): filling rows in
// place and sorting a handful of entries costs less than a
// transposition's per-vertex histograms and scatter. With no hub the
// relabeling keeps original order and every row arrives ascending; only
// the DegreeSortClasses/SparseOrder ablations sort long rows. Rows are
// filled over edge-balanced parts; the result is the same for every
// worker count.
func buildSparseBlock(g *graph.Graph, ih *IHTL, pool *sched.Pool, clk []buildClock) {
	sp := &ih.Sparse
	sp.DestLo = ih.NumHubs
	rows := ih.OldID[sp.DestLo:]
	n := len(rows)
	nparts := pool.Workers()
	sp.Index = make([]int64, n+1)
	sched.ForParts(pool, nparts, func(worker, part int) {
		faultinject.Fire(faultinject.SiteBuildFill)
		t := time.Now()
		lo, hi := sched.SplitRange(n, nparts, part)
		inDegrees(g.InIndex, rows[lo:hi], sp.Index[1+lo:1+hi])
		c := &clk[worker]
		c.blocks += time.Since(t)
	})
	sched.PrefixSum(pool, sp.Index[1:])
	sp.Srcs = make([]graph.VID, sp.Index[n])
	bounds := sched.EdgeBalancedParts(sp.Index, nparts)
	sched.ForParts(pool, nparts, func(worker, part int) {
		faultinject.Fire(faultinject.SiteBuildFill)
		t := time.Now()
		gatherRows(g.InIndex, g.InNbrs, rows, ih.NewID, sp.Index, sp.Srcs, bounds[part], bounds[part+1])
		c := &clk[worker]
		c.blocks += time.Since(t)
	})
}

// inDegrees writes the in-degree of each of rows into deg.
//
//ihtl:noalloc
func inDegrees(inIndex []int64, rows []graph.VID, deg []int64) {
	for i, v := range rows {
		deg[i] = inIndex[v+1] - inIndex[v]
	}
}

// gatherRows fills sparse rows [lo, hi): row r is the relabelled
// in-list of rows[r], sorted.
//
//ihtl:noalloc
func gatherRows(inIndex []int64, inNbrs, rows, newID []graph.VID, index []int64, srcs []graph.VID, lo, hi int) {
	for r := lo; r < hi; r++ {
		v := rows[r]
		row := srcs[index[r]:index[r+1]]
		for i, u := range inNbrs[inIndex[v]:inIndex[v+1]] {
			row[i] = newID[u]
		}
		sortRow(row)
	}
}

// insertionSortMax is the longest row sortRow insertion-sorts; a row
// with hubs present holds at most MinHubDegree entries.
const insertionSortMax = 32

// sortRow sorts one gathered row ascending.
//
//ihtl:noalloc
func sortRow(row []graph.VID) {
	if len(row) > insertionSortMax {
		slices.Sort(row)
		return
	}
	for i := 1; i < len(row); i++ {
		x := row[i]
		j := i
		for ; j > 0 && row[j-1] > x; j-- {
			row[j] = row[j-1]
		}
		row[j] = x
	}
}
