package spmv

import (
	"fmt"

	"ihtl/internal/graph"
	"ihtl/internal/sched"
)

// The float64-sum engines cover the paper's evaluation (PageRank).
// §6 argues the same irregular-traversal idea applies to other
// analytics — SSSP, connected components, reachability — which are
// SpMV over different algebras: min-plus, min, boolean-or. The
// generic engines below compute
//
//	dst[v] = ⊕_{u ∈ N⁻(v)} src[u]
//
// over any commutative monoid ⊕, in pull or buffered-push form; the
// iHTL counterpart lives in internal/core.

// Monoid is a commutative, associative combine with an identity
// element. Identity must satisfy Combine(Identity, x) == x, and
// Combine must be insensitive to argument order and grouping (the
// parallel engines exploit both).
//
// Edge, when non-nil, turns the monoid into a semiring step: the
// source value is transformed per edge before combining,
// dst[v] = ⊕ Edge(src[u], u, v) — e.g. min-plus SSSP uses
// Edge = src[u] + w(u,v). Edge receives vertex IDs in the ENGINE's ID
// space (original for the baseline engines, relabeled for the iHTL
// engine — map through IHTL.OldID when weights are keyed by original
// IDs). Edge(Identity, u, v) must return an identity-like value that
// cannot win Combine against real values (true for min-plus with a
// large Identity and non-negative weights).
type Monoid[T any] struct {
	Identity T
	Combine  func(a, b T) T
	Edge     func(x T, src, dst graph.VID) T
}

// Apply transforms a source value across an edge (identity when no
// Edge hook is set). Exported for the iHTL generic engine in
// internal/core.
func (m *Monoid[T]) Apply(x T, src, dst graph.VID) T {
	if m.Edge == nil {
		return x
	}
	return m.Edge(x, src, dst)
}

// MinPlusInt64 is the shortest-path semiring step over int64: values
// combine by min and traverse edges by adding weight(src, dst). The
// weight function must be non-negative.
func MinPlusInt64(weight func(src, dst graph.VID) int64) Monoid[int64] {
	m := MinInt64()
	m.Edge = func(x int64, src, dst graph.VID) int64 {
		if x >= m.Identity {
			return m.Identity // don't relax from unreached vertices
		}
		return x + weight(src, dst)
	}
	return m
}

// MinInt64 is the tropical (min) monoid over int64 — the algebra of
// shortest paths and minimum labels.
func MinInt64() Monoid[int64] {
	return Monoid[int64]{
		Identity: int64(1) << 62,
		Combine: func(a, b int64) int64 {
			if a < b {
				return a
			}
			return b
		},
	}
}

// BoolOr is the boolean-or monoid — the algebra of reachability.
func BoolOr() Monoid[bool] {
	return Monoid[bool]{Combine: func(a, b bool) bool { return a || b }}
}

// GenericStepper is the monoid analogue of Stepper.
type GenericStepper[T any] interface {
	StepMonoid(src, dst []T)
	NumVertices() int
}

// GenericEngine computes monoid SpMV in pull direction (no write
// races, works for any monoid) or buffered-push form.
type GenericEngine[T any] struct {
	g      *graph.Graph
	pool   *sched.Pool
	m      Monoid[T]
	push   bool
	bounds []int
	bufs   [][]T
	// partSched claims partitions by range stealing (see
	// Engine.partSched); persistent so Steps allocate nothing.
	partSched *sched.StealScheduler
}

// NewGenericEngine prepares a monoid engine over g. push selects the
// buffered-push kernel (per-worker full-length buffers merged after
// the pass), otherwise pull.
//
//ihtl:allow-dead monoid test reference: core.GenericEngine is held to it bit for bit
func NewGenericEngine[T any](g *graph.Graph, pool *sched.Pool, m Monoid[T], push bool) (*GenericEngine[T], error) {
	if g == nil || pool == nil {
		return nil, fmt.Errorf("spmv: nil graph or pool")
	}
	if m.Combine == nil {
		return nil, fmt.Errorf("spmv: monoid without Combine")
	}
	e := &GenericEngine[T]{g: g, pool: pool, m: m, push: push}
	if push {
		e.bounds = sched.EdgeBalancedParts(g.OutIndex, pool.Workers()*4)
		e.bufs = make([][]T, pool.Workers())
		for w := range e.bufs {
			e.bufs[w] = make([]T, g.NumV)
		}
	} else {
		e.bounds = sched.EdgeBalancedParts(g.InIndex, pool.Workers()*4)
	}
	e.partSched = sched.NewStealScheduler(pool.Workers())
	return e, nil
}

// forParts runs fn over every partition index using the persistent
// steal scheduler.
func (e *GenericEngine[T]) forParts(nparts int, fn func(worker, part int)) {
	e.pool.ForStealWith(e.partSched, nparts, 1, func(w, lo, hi int) {
		for p := lo; p < hi; p++ {
			fn(w, p)
		}
	})
}

// NumVertices implements GenericStepper.
func (e *GenericEngine[T]) NumVertices() int { return e.g.NumV }

// StepMonoid implements GenericStepper.
func (e *GenericEngine[T]) StepMonoid(src, dst []T) {
	if len(src) != e.g.NumV || len(dst) != e.g.NumV {
		panic("spmv: vector length mismatch")
	}
	if e.push {
		e.stepPushMonoid(src, dst)
	} else {
		e.stepPullMonoid(src, dst)
	}
}

func (e *GenericEngine[T]) stepPullMonoid(src, dst []T) {
	g := e.g
	m := e.m
	e.forParts(len(e.bounds)-1, func(w, part int) {
		lo, hi := e.bounds[part], e.bounds[part+1]
		for v := lo; v < hi; v++ {
			acc := m.Identity
			for i := g.InIndex[v]; i < g.InIndex[v+1]; i++ {
				u := g.InNbrs[i]
				acc = m.Combine(acc, m.Apply(src[u], u, graph.VID(v)))
			}
			dst[v] = acc
		}
	})
}

func (e *GenericEngine[T]) stepPushMonoid(src, dst []T) {
	g := e.g
	m := e.m
	e.pool.Run(func(w int) {
		buf := e.bufs[w]
		for i := range buf {
			buf[i] = m.Identity
		}
	})
	e.forParts(len(e.bounds)-1, func(w, part int) {
		buf := e.bufs[w]
		lo, hi := e.bounds[part], e.bounds[part+1]
		for v := lo; v < hi; v++ {
			x := src[v]
			for i := g.OutIndex[v]; i < g.OutIndex[v+1]; i++ {
				u := g.OutNbrs[i]
				buf[u] = m.Combine(buf[u], m.Apply(x, graph.VID(v), u))
			}
		}
	})
	bufs := e.bufs
	e.pool.ForStatic(g.NumV, func(w, lo, hi int) {
		for v := lo; v < hi; v++ {
			acc := m.Identity
			for t := range bufs {
				acc = m.Combine(acc, bufs[t][v])
			}
			dst[v] = acc
		}
	})
}
