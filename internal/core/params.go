// Package core implements in-Hub Temporal Locality (iHTL), the
// paper's contribution: an SpMV engine that processes incoming edges
// of in-hub vertices in push direction through L2-resident per-thread
// buffers (the "flipped blocks") and all remaining edges in pull
// direction (the "sparse block"), traversing every edge exactly once
// per iteration (§3).
package core

import (
	"fmt"

	"ihtl/internal/graph"
)

// DefaultL2Bytes is the L2 capacity of the paper's evaluation machine
// (Xeon Gold 6130), the cache level §4.7 identifies as the right home
// for hub vertex data.
const DefaultL2Bytes = 1 << 20

// DefaultVertexBytes matches the paper's 8-byte PageRank vertex data.
const DefaultVertexBytes = 8

// Params controls iHTL graph construction (§3.2-3.3).
type Params struct {
	// HubsPerBlock is B, the number of in-hubs per flipped block.
	// When 0 it is derived as CacheBytes / VertexBytes — "we specify
	// the number of hubs per flipped block as B by dividing the
	// level 2 cache size by the size of vertex data" (§3.3) — and the
	// build flips nothing at all when the whole graph's vertex data
	// fits that cache (the resident regime, see resident). A set
	// HubsPerBlock is an instruction to flip, whatever the graph's size.
	HubsPerBlock int
	// CacheBytes is the cache capacity used to derive HubsPerBlock;
	// 0 selects DefaultL2Bytes. Table 6 sweeps this.
	CacheBytes int
	// VertexBytes is the per-vertex data size; 0 selects 8.
	VertexBytes int
	// FVThreshold is the fraction of |FV₁| a new flipped block's
	// source set must exceed to be worth creating; 0 selects the
	// paper's 0.5 ("iHTL allows a new flipped block to be formed if
	// its hubs have edges from at least 50% of the {hubs ∪ VWEH}").
	FVThreshold float64
	// MaxBlocks caps the number of flipped blocks as a safety bound;
	// 0 selects 64 (the paper's datasets need at most 16, Table 5).
	MaxBlocks int
	// MinHubDegree refuses to classify vertices below this in-degree
	// as hubs even if a block has room: hubs with tiny degrees gain
	// nothing from flipping. 0 selects 2.
	MinHubDegree int
	// DegreeSortClasses orders VWEH and FV vertices by descending
	// degree instead of preserving their original order. The paper
	// deliberately preserves order ("iHTL maintains the relative
	// order of vertices within the VWEH and FV categories, while
	// other locality optimizing algorithms apply degree sorting
	// throughout. This destroys locality expressed in the initial
	// assignment of vertex labels", §5.4); this flag ablates that
	// choice.
	DegreeSortClasses bool
	// FastSelect uses the lower-complexity block-count algorithm the
	// paper proposes as future work (§6): instead of one in-edge pass
	// per tentative block, a single pass over the out-edges of FV₁
	// (the sources of block 1) estimates every |FVᵢ| at once. The
	// estimate undercounts sources that reach later blocks but not
	// block 1, so FastSelect may admit fewer blocks than the exact
	// §3.3 procedure; SpMV results are identical either way.
	FastSelect bool
	// SparseOrder applies a locality-optimizing ordering to the VWEH
	// and FV classes (the destinations and sources of the pull-
	// traversed sparse block) instead of preserving original order —
	// the paper's §6 suggestion that "locality of the sparse block
	// may improve by applying Rabbit-Order". Hubs keep their rank
	// order and class boundaries are preserved. Mutually exclusive
	// with DegreeSortClasses.
	SparseOrder SparseOrderer
}

// SparseOrderer computes a vertex ordering; order.Algorithm satisfies
// it. Only the relative order it induces inside the VWEH and FV
// classes is used.
type SparseOrderer interface {
	Name() string
	Permutation(g *graph.Graph) []graph.VID
}

// ForBatch returns the parameters adjusted for K-wide batched
// execution (Engine.StepBatch): per-vertex data grows to K lanes, so
// VertexBytes is scaled by k and the effective B shrinks to
// CacheBytes/(VertexBytes·k) — a K-wide per-block hub buffer then
// occupies the same cache budget the scalar one did (§3.4's sizing
// argument, applied to K lanes). An explicitly set HubsPerBlock is
// divided by k directly. k <= 1 returns p unchanged.
func (p Params) ForBatch(k int) Params {
	if k <= 1 {
		return p
	}
	if p.HubsPerBlock > 0 {
		p.HubsPerBlock /= k
		if p.HubsPerBlock < 1 {
			p.HubsPerBlock = 1
		}
		return p
	}
	if p.VertexBytes == 0 {
		p.VertexBytes = DefaultVertexBytes
	}
	p.VertexBytes *= k
	return p
}

// resident reports whether a graph of numV vertices is in the resident
// regime: B is derived and the vertex data of the whole graph already
// fits the cache B is sized from. §3.3 flips a hub because the data of
// its in-neighbours does not fit in cache; here there is no such hub,
// and a plain pull sums every row in place for less than the push
// through buffers plus the merge costs (DESIGN.md, "The resident
// regime", holds the measured crossover). p is as the caller gave it,
// before defaulting, so ForBatch(k) scales the rule to K lanes through
// VertexBytes.
func (p Params) resident(numV int) bool {
	if p.HubsPerBlock != 0 {
		return false
	}
	q := p.withDefaults()
	return int64(numV)*int64(q.VertexBytes) <= int64(q.CacheBytes)
}

// withDefaults resolves zero fields.
func (p Params) withDefaults() Params {
	if p.VertexBytes == 0 {
		p.VertexBytes = DefaultVertexBytes
	}
	if p.CacheBytes == 0 {
		p.CacheBytes = DefaultL2Bytes
	}
	if p.HubsPerBlock == 0 {
		p.HubsPerBlock = p.CacheBytes / p.VertexBytes
	}
	if p.FVThreshold == 0 { //ihtl:allow-zerocmp option defaulting, ±0 both mean "unset"
		p.FVThreshold = 0.5
	}
	if p.MaxBlocks == 0 {
		p.MaxBlocks = 64
	}
	if p.MinHubDegree == 0 {
		p.MinHubDegree = 2
	}
	return p
}

// Validate checks parameter sanity after defaulting.
func (p Params) Validate() error {
	if p.CacheBytes < 0 {
		return fmt.Errorf("core: CacheBytes %d < 0", p.CacheBytes)
	}
	q := p.withDefaults()
	if q.VertexBytes < 1 {
		return fmt.Errorf("core: VertexBytes %d < 1", q.VertexBytes)
	}
	if q.HubsPerBlock < 1 {
		return fmt.Errorf("core: HubsPerBlock %d < 1", q.HubsPerBlock)
	}
	if q.FVThreshold < 0 || q.FVThreshold > 1 {
		return fmt.Errorf("core: FVThreshold %v out of [0,1]", q.FVThreshold)
	}
	if q.MaxBlocks < 1 {
		return fmt.Errorf("core: MaxBlocks %d < 1", q.MaxBlocks)
	}
	if q.DegreeSortClasses && q.SparseOrder != nil {
		return fmt.Errorf("core: DegreeSortClasses and SparseOrder are mutually exclusive")
	}
	return nil
}
