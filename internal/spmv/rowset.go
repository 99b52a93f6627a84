package spmv

import (
	"math/bits"
	"sync/atomic"
)

// RowSet is an n-bit set of vertex rows — bit r&63 of word r>>6 — the
// form in which a batched driver tells an engine which rows of a K-lane
// vector hold anything but +0.0, and the engine answers which rows of
// the result it wrote (core.Engine.StepBatchActiveCtx).
//
// Inside a pool dispatch workers own row ranges, not word ranges, so two
// of them can meet inside one word: Put is the atomic update for that,
// Load the matching read. Everything else is for the orchestrator
// between dispatches, or for words nobody is writing.
type RowSet []uint64

// NewRowSet returns an empty set over rows [0, n).
func NewRowSet(n int) RowSet { return make(RowSet, (n+63)>>6) }

// Has reports whether row r is in the set.
//
//ihtl:noalloc
func (s RowSet) Has(r int) bool { return s[r>>6]>>(uint(r)&63)&1 != 0 }

// Add puts row r into the set.
//
//ihtl:noalloc
func (s RowSet) Add(r int) { s[r>>6] |= 1 << (uint(r) & 63) }

// Count returns the number of rows in the set.
//
//ihtl:noalloc
func (s RowSet) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// RangeMask returns the bits of word wi that name rows in [lo, hi).
//
//ihtl:noalloc
func RangeMask(wi, lo, hi int) uint64 {
	m := ^uint64(0)
	if base := wi << 6; lo > base {
		m <<= uint(lo - base)
	}
	if end := (wi + 1) << 6; hi < end {
		m &= ^uint64(0) >> uint(end-hi)
	}
	return m
}

// Load reads word wi while other workers may Put it.
//
//ihtl:noalloc
func (s RowSet) Load(wi int) uint64 { return atomic.LoadUint64(&s[wi]) }

// Put replaces the bits of word wi under mask with bits, atomically:
// how a worker rewrites its own rows of a word it shares.
//
//ihtl:noalloc
func (s RowSet) Put(wi int, mask, bits uint64) { PutWord(&s[wi], mask, bits) }

// PutWord is Put on the word itself, for the kernels that reach it
// without a bounds check.
//
//ihtl:noalloc
func PutWord(p *uint64, mask, bits uint64) {
	for {
		old := atomic.LoadUint64(p)
		if v := old&^mask | bits; v == old || atomic.CompareAndSwapUint64(p, old, v) {
			return
		}
	}
}
