package core

import "ihtl/internal/spmv"

// Batched (multi-vector) execution of Algorithm 3: StepBatch runs K
// interleaved SpMVs through one traversal of the iHTL topology.
// Vectors are vertex-major interleaved (lane j of vertex v at
// x[v*k+j]), so every flipped edge drives K contiguous buffer lanes
// and every sparse edge K contiguous partial sums — the edge/index
// stream that bounds the scalar kernels is amortised K ways.
//
// There is one pipeline for every width: schedulers, countdown gates,
// barriers and clocks do not depend on K, and the hub buffers and dirty
// ranges live in a batchState that is set to the width of each step and
// grows to the widest width stepped (a steady-state step is
// allocation-free, across width changes too). A scalar Step is the
// k == 1 setting, with the scalar kernels as its arms. To keep a K-wide
// per-block buffer L2-resident the way §3.4 sizes the scalar one, build
// the IHTL with Params.ForBatch(k), which shrinks the effective B to
// L2/(8·K).

// batchState is the engine's execution state, set to one width.
type batchState struct {
	k int
	// bufs[w] is worker w's private accumulation buffer over all hubs —
	// "each thread buffers B * #fb vertex data" (§3.4), NumHubs*k lanes,
	// vertex-major interleaved. With B sized to L2/(8·K), one buffer per
	// flipped block fits L2.
	bufs [][]float64
	// dirty tracks per (worker, block), at worker*len(Blocks)+block,
	// the HUB range the worker touched (lane-agnostic: lanes of one hub
	// live or die together), so merges read only buffers that were
	// written. A half-open interval, empty when hi <= lo.
	dirty []dirtyRange
	// hubBits[w] is worker w's per-hub dirty bits of an active-row step
	// (active.go): one bit per hub the worker pushed into, block by
	// block, each block starting at a word boundary — hub h of block blk
	// at bit blk·wordsPerBlock·64 + h − HubLo — so that no word is shared
	// between blocks, whose merges run concurrently with the pushes into
	// their neighbours. All zero between steps: the active merge clears
	// the words it folds, recoverState the rest.
	hubBits [][]uint64
	// active and touched are the row sets of an active-row step
	// (active.go), staged for its dispatch and nil for a dense one: where
	// the fused worker and the sparse parts pick their kernels.
	active, touched spmv.RowSet
	// prefetch is the lane prefetch distance of this width, the last
	// argument of the two 8-lane assembly cells: prefetchDist when
	// the width's lane rows outgrow the cache B is sized from, else 0
	// (the plain loop). setWidth decides it.
	prefetch int
}

// setWidth sets the engine's batch state to width k. The daemon changes
// width batch by batch (a lane per coalesced query), so the arrays are
// sized for the widest width seen and resliced for a narrower one. That
// is sound because every hub buffer is all-zero between steps — a merge
// zeroes what it folds, no step reaches past its NumHubs*k, and
// recoverState clears an aborted step's buffers whole.
//
// It also decides the width's lane prefetch distance, from the
// footprint alone: once the width's lane rows, NumV·k float64s, outgrow
// CacheBytes — Params.resident's test taken at width k, counted in
// lanes because a ForBatch build's VertexBytes already counts its own —
// a lane row per edge is a miss, and the 8-lane cells fetch it
// prefetchDist edges ahead. Inside the cache the prefetch is pure
// overhead and they run the plain loop (DESIGN.md §8, "Prefetching the
// lanes").
func (e *Engine) setWidth(k int) {
	b := &e.batch
	if b.k == k {
		return
	}
	b.k = k
	b.prefetch = 0
	if int64(e.ih.NumV)*int64(k)*8 > int64(e.ih.params.CacheBytes) {
		b.prefetch = prefetchDist
	}
	for i := range b.bufs {
		b.bufs[i] = resized(b.bufs[i], e.ih.NumHubs*k)
	}
}

// hubBitWords is the word count of one block's hub bits in
// batchState.hubBits: the widest block's hubs, rounded up to whole words.
func hubBitWords(ih *IHTL) int {
	words := 0
	for b := range ih.Blocks {
		fb := &ih.Blocks[b]
		words = max(words, (fb.HubHi-fb.HubLo+63)>>6)
	}
	return words
}

// blockHubBits returns worker w's hub bits of block blk: hub h at bit
// h − HubLo.
//
//ihtl:noalloc
func (b *batchState) blockHubBits(w, blk, nblocks int) []uint64 {
	bits := b.hubBits[w]
	words := len(bits) / nblocks
	return bits[blk*words : (blk+1)*words : (blk+1)*words]
}

// resized returns s cut to n elements, or a zeroed allocation of n
// when s has no room for them.
func resized(s []float64, n int) []float64 {
	if n <= cap(s) {
		return s[:n]
	}
	return make([]float64, n)
}

// setActive stages (or, given nil sets, unstages) an active-row step.
func (e *Engine) setActive(active, touched spmv.RowSet) {
	e.batch.active, e.batch.touched = active, touched
}

// recoverState clears the buffers, dirty ranges and hub bits after an
// aborted step, and unstages an active-row step's sets; see
// Engine.recoverState. The buffers are cleared to their capacity, so
// that the lanes setWidth reslices back in are zero whatever width the
// state is set to by now.
func (b *batchState) recoverState() {
	b.active, b.touched = nil, nil
	for w, buf := range b.bufs {
		clear(buf[:cap(buf)])
		clear(b.hubBits[w])
	}
	for i := range b.dirty {
		b.dirty[i] = dirtyRange{}
	}
}

// PermuteToNewBatch scatters K interleaved vectors indexed by original
// IDs into iHTL ID order: out[NewID[v]*k+j] = in[v*k+j].
func (ih *IHTL) PermuteToNewBatch(in, out []float64, k int) {
	if len(in) != ih.NumV*k || len(out) != ih.NumV*k {
		panic("core: batch vector length mismatch")
	}
	for v, nv := range ih.NewID {
		copy(out[int(nv)*k:int(nv)*k+k], in[v*k:v*k+k])
	}
}

// PermuteToOldBatch is the inverse of PermuteToNewBatch:
// out[v*k+j] = in[NewID[v]*k+j].
func (ih *IHTL) PermuteToOldBatch(in, out []float64, k int) {
	if len(in) != ih.NumV*k || len(out) != ih.NumV*k {
		panic("core: batch vector length mismatch")
	}
	for v, nv := range ih.NewID {
		copy(out[v*k:v*k+k], in[int(nv)*k:int(nv)*k+k])
	}
}
