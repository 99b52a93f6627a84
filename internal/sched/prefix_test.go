package sched

import (
	"testing"

	"ihtl/internal/xrand"
)

// TestPrefixSum checks the blocked two-pass parallel scan against the
// sequential reference, across sizes straddling the cutoff and worker
// counts that do and do not divide the length evenly.
func TestPrefixSum(t *testing.T) {
	sizes := []int{0, 1, 2, 7, 100, prefixSumCutoff - 1, prefixSumCutoff, prefixSumCutoff + 1, 3*prefixSumCutoff + 17}
	for _, workers := range []int{1, 3, 4, 7} {
		p := NewPool(workers)
		for _, n := range sizes {
			rng := xrand.New(uint64(n)*31 + uint64(workers))
			a := make([]int64, n)
			for i := range a {
				a[i] = int64(rng.Uint64()%2001) - 1000
			}
			want := append([]int64(nil), a...)
			prefixSumSeq(want)
			PrefixSum(p, a)
			for i := range a {
				if a[i] != want[i] {
					t.Fatalf("workers=%d n=%d: PrefixSum[%d] = %d, want %d", workers, n, i, a[i], want[i])
				}
			}
		}
		p.Close()
	}
}
