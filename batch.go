package ihtl

import (
	"context"
	"fmt"
)

// Batch packs K logical vertex vectors into the vertex-major
// interleaved layout the batched engines consume: lane j of vertex v
// lives at Data[v*K+j], so one edge load drives K contiguous lanes.
// Use SetLane/Lane to move between dense per-vector and interleaved
// form, and NewBatchEngine/Engine.StepBatch to traverse all K lanes
// with a single pass over the topology.
type Batch struct {
	// N is the vertex count, K the number of lanes (vectors).
	N, K int
	// Data is the interleaved payload, length N*K.
	Data []float64
}

// NewBatch allocates a zeroed batch of k vectors over n vertices.
// It panics on an invalid shape (n < 0 or k < 1) — the convenient
// form for literal, known-good dimensions. Code handling untrusted
// dimensions should use NewBatchChecked.
func NewBatch(n, k int) *Batch {
	b, err := NewBatchChecked(n, k)
	if err != nil {
		panic(err)
	}
	return b
}

// NewBatchChecked is NewBatch with the shape validation returned as
// an error instead of a panic.
func NewBatchChecked(n, k int) (*Batch, error) {
	if n < 0 || k < 1 {
		return nil, fmt.Errorf("ihtl: invalid batch shape (%d, %d)", n, k)
	}
	return &Batch{N: n, K: k, Data: make([]float64, n*k)}, nil
}

// At returns lane j of vertex v.
func (b *Batch) At(v, j int) float64 { return b.Data[v*b.K+j] }

// Set stores x into lane j of vertex v.
func (b *Batch) Set(v, j int, x float64) { b.Data[v*b.K+j] = x }

// SetLane scatters a dense vector (length N) into lane j.
func (b *Batch) SetLane(j int, in []float64) {
	if len(in) != b.N {
		panic("ihtl: lane length mismatch")
	}
	for v, x := range in {
		b.Data[v*b.K+j] = x
	}
}

// Lane gathers lane j into out (allocated when nil) and returns it.
func (b *Batch) Lane(j int, out []float64) []float64 {
	if out == nil {
		out = make([]float64, b.N)
	} else if len(out) != b.N {
		panic("ihtl: lane length mismatch")
	}
	for v := range out {
		out[v] = b.Data[v*b.K+j]
	}
	return out
}

// PermuteToNew scatters the batch from original into iHTL ID order.
func (b *Batch) PermuteToNew(ih *IHTL, out *Batch) {
	ih.PermuteToNewBatch(b.Data, out.Data, b.K)
}

// PermuteToOld scatters the batch from iHTL into original ID order.
func (b *Batch) PermuteToOld(ih *IHTL, out *Batch) {
	ih.PermuteToOldBatch(b.Data, out.Data, b.K)
}

// StepBatch computes K interleaved SpMVs — dst.Data[v*k+j] =
// Σ_{u∈N⁻(v)} src.Data[u*k+j] — in one traversal of the topology, in
// iHTL ID space. src and dst must both have shape (NumVertices, k).
// For best locality build the engine with NewBatchEngine (or
// Params.ForBatch) so the K-wide hub buffers stay cache-resident.
func (e *Engine) StepBatch(src, dst *Batch) {
	if src.K != dst.K || src.N != dst.N {
		panic("ihtl: batch shape mismatch")
	}
	if err := e.eng.StepCtx(context.Background(), src.Data, dst.Data, src.K, Epilogue{}); err != nil {
		panic(err)
	}
}

// StepBatchCtx is StepBatch with the StepCtx failure contract:
// ctx cancellation, worker panics and numeric-health violations
// return errors instead of panicking, and a failed step leaves the
// engine reset for the next clean one. ctx may be nil.
func (e *Engine) StepBatchCtx(ctx context.Context, src, dst *Batch) error {
	if src.K != dst.K || src.N != dst.N {
		return fmt.Errorf("ihtl: batch shape mismatch (%d,%d) vs (%d,%d)", src.N, src.K, dst.N, dst.K)
	}
	return e.eng.StepCtx(ctx, src.Data, dst.Data, src.K, Epilogue{})
}

// NewBatchEngine builds an iHTL engine tuned for K-wide batched
// traversal: identical to NewEngine except that the flipped-block
// size B shrinks to CacheBytes/(VertexBytes·k), keeping each
// per-worker K-wide hub buffer inside the same cache budget the
// scalar engine's buffer occupies. The engine still serves scalar
// Step calls (over the smaller blocks): a Step is a one-lane StepBatch
// through the same buffers.
func NewBatchEngine(g *Graph, pool *Pool, p Params, k int) (*Engine, error) {
	if k < 1 {
		return nil, fmt.Errorf("ihtl: batch width %d < 1", k)
	}
	return NewEngine(g, pool, p.ForBatch(k))
}

// PersonalizedPageRank runs one personalized PageRank per source —
// teleporting to that source only — over the iHTL engine, advancing
// all sources per pool dispatch through batched SpMV. It returns one
// rank vector per source, in ORIGINAL vertex-ID space (the iHTL
// relabeling is applied internally). The engine keeps the run's
// working arrays (3·n·K + n floats — 4·n·K + n on an engine that streams
// its epilogue — and three n-bit row sets) for its next call, so that a caller running batch after batch does not page
// them in afresh each time; like Step, calls on one engine must not
// overlap. The steps and their element-wise sweeps run on the engine's
// own pool; pool wipes the arrays a call starts from and unpacks the
// result, and may be nil to run those two passes on the caller.
func PersonalizedPageRank(e *Engine, pool *Pool, sources []VID, opt PageRankOptions) ([][]float64, error) {
	n := e.NumVertices()
	srcNew := make([]int, len(sources))
	for j, s := range sources {
		if int(s) < 0 || int(s) >= n {
			return nil, fmt.Errorf("ihtl: source %d out of range", s)
		}
		srcNew[j] = int(e.newID(s))
	}
	res, err := e.ppr.Run(nil, e.eng, e.outDegrees(), pool, srcNew, opt)
	if err != nil {
		return nil, err
	}
	// Un-interleave and un-permute in one pass over original IDs — a
	// vertex's K lanes are one contiguous read — on the pool, so that
	// each worker first-touches its own share of the K fresh vectors:
	// their page faults are most of this pass. A run that ended in the
	// active-row mode names the rows that may hold a rank (res.Rows);
	// the fresh vectors are +0.0 everywhere else already, so only those
	// rows are read and written.
	k := res.K
	out := make([][]float64, k)
	for j := range out {
		out[j] = make([]float64, n)
	}
	newIDs := e.newIDs()
	unpack := func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			nv := int(newIDs[v])
			if res.Rows != nil && !res.Rows.Has(nv) {
				continue
			}
			for j, x := range res.Ranks[nv*k : nv*k+k] {
				out[j][v] = x
			}
		}
	}
	if pool == nil {
		unpack(0, 0, n)
	} else {
		pool.ForStatic(n, unpack)
	}
	return out, nil
}
