package core

import (
	"fmt"
	"sync"
	"testing"

	"ihtl/internal/gen"
	"ihtl/internal/sched"
)

// TestConcurrentEngineConstruction builds many engines over ONE shared
// IHTL from concurrent goroutines, mixing the options whose
// constructors run the lazy graph derivations — EnsureEncoded
// (BlockEncoding varint), EnsureFlatTopology (flat over an
// encoded-only graph is not exercised here; DropFlatTopology is
// destructive and documented single-threaded) — beside the default
// engine's construction, and then steps each.
// Under -race this pins the lazyMu guard: before it, two goroutines
// could both observe a nil Enc and race the derivation.
func TestConcurrentEngineConstruction(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(10, 8, 21))
	if err != nil {
		t.Fatal(err)
	}
	ih, err := Build(g, Params{HubsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
	}
	opts := []EngineOptions{
		{BlockEncoding: EncodingVarint},
		{},
	}
	src := integerVec(6, g.NumV)
	var want []float64

	const rounds = 4
	var wg sync.WaitGroup
	results := make([][]float64, len(opts)*rounds)
	errs := make([]error, len(opts)*rounds)
	for r := 0; r < rounds; r++ {
		for i, opt := range opts {
			wg.Add(1)
			go func(slot int, opt EngineOptions) {
				defer wg.Done()
				pool := sched.NewPool(2)
				defer pool.Close()
				e, err := NewEngineOpts(ih, pool, opt)
				if err != nil {
					errs[slot] = fmt.Errorf("NewEngineOpts(%+v): %w", opt, err)
					return
				}
				results[slot] = stepOldSpace(ih, e, src)
			}(r*len(opts)+i, opt)
		}
	}
	wg.Wait()
	for slot, err := range errs {
		if err != nil {
			t.Fatal(slot, err)
		}
	}
	for slot, got := range results {
		if want == nil {
			want = got
			continue
		}
		requireBitIdentical(t, fmt.Sprintf("concurrent engine %d", slot), want, got)
	}
}
