package spmv

import (
	"testing"

	"ihtl/internal/graph"
)

// maxFloat64 is the max monoid over float64.
var maxFloat64 = Monoid[float64]{
	Identity: -1e308,
	Combine:  func(a, b float64) float64 { return max(a, b) },
}

func TestGenericPullAndPushAgree(t *testing.T) {
	g := graph.PaperExample()
	for _, push := range []bool{false, true} {
		e, err := NewGenericEngine(g, testPool, maxFloat64, push)
		if err != nil {
			t.Fatal(err)
		}
		if e.NumVertices() != g.NumV {
			t.Fatal("NumVertices wrong")
		}
		src := make([]float64, g.NumV)
		for v := range src {
			src[v] = float64(v * v)
		}
		dst := make([]float64, g.NumV)
		e.StepMonoid(src, dst)
		for v := 0; v < g.NumV; v++ {
			want := maxFloat64.Identity
			for _, u := range g.In(graph.VID(v)) {
				if src[u] > want {
					want = src[u]
				}
			}
			if dst[v] != want {
				t.Fatalf("push=%v: max[%d] = %v, want %v", push, v, dst[v], want)
			}
		}
	}
}

func TestMinPlusEdgeHook(t *testing.T) {
	m := MinPlusInt64(func(src, dst graph.VID) int64 { return int64(dst) + 1 })
	// Relaxing a reached value adds the weight.
	if got := m.Apply(10, 0, 4); got != 15 {
		t.Fatalf("Apply = %d, want 15", got)
	}
	// Unreached identity must stay identity.
	if got := m.Apply(m.Identity, 0, 4); got != m.Identity {
		t.Fatalf("identity poisoned: %d", got)
	}
	// No-hook monoid passes through.
	plain := MinInt64()
	if got := plain.Apply(7, 1, 2); got != 7 {
		t.Fatalf("plain Apply = %d", got)
	}
}

func TestBoolOrAndSumMonoids(t *testing.T) {
	bo := BoolOr()
	if bo.Combine(false, true) != true || bo.Combine(false, false) != false || bo.Identity {
		t.Fatal("BoolOr wrong")
	}
}

func TestGenericStepPanicsOnBadLengths(t *testing.T) {
	g := graph.Star(5)
	e, _ := NewGenericEngine(g, testPool, MinInt64(), false)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	e.StepMonoid(make([]int64, 2), make([]int64, g.NumV))
}

func TestEngineAccessors(t *testing.T) {
	g := graph.Star(5)
	e, _ := NewEngine(g, testPool, Pull, Options{})
	if e.NumVertices() != g.NumV || e.dir != Pull {
		t.Fatal("accessors wrong")
	}
}
