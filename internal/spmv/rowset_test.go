package spmv

import (
	"sync"
	"testing"
)

// TestRowSetRanges checks Add, Has and Count against a
// bit-at-a-time model for every [lo, hi) over three words, which covers
// ranges inside a word, ending on a word edge and spanning words.
func TestRowSetRanges(t *testing.T) {
	const n = 150
	for lo := 0; lo <= n; lo++ {
		for hi := lo; hi <= n; hi++ {
			s := NewRowSet(n)
			for r := lo; r < hi; r++ {
				s.Add(r)
			}
			if got := s.Count(); got != hi-lo {
				t.Fatalf("rows [%d, %d): %d rows", lo, hi, got)
			}
			for r := 0; r < n; r++ {
				if s.Has(r) != (r >= lo && r < hi) {
					t.Fatalf("rows [%d, %d): row %d = %v", lo, hi, r, s.Has(r))
				}
			}
		}
	}
	s := NewRowSet(n)
	s.Add(0)
	s.Add(64)
	s.Add(149)
	if s.Count() != 3 || !s.Has(64) || s.Has(63) {
		t.Fatalf("Add: %v", s)
	}
}

// TestRowSetPutSharedWord has workers rewrite adjoining row ranges that
// meet inside words, as the epilogue's ranges do: every row must end up
// as its owner wrote it (run under -race).
func TestRowSetPutSharedWord(t *testing.T) {
	const n, workers = 1000, 7
	s := NewRowSet(n)
	for r := 0; r < n; r++ {
		s.Add(r)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			for wi := lo >> 6; wi<<6 < hi; wi++ {
				mask := RangeMask(wi, lo, hi)
				keep := s.Load(wi) & mask & 0x5555555555555555 // even rows stay
				s.Put(wi, mask, keep)
			}
		}()
	}
	wg.Wait()
	for r := 0; r < n; r++ {
		if s.Has(r) != (r%2 == 0) {
			t.Fatalf("row %d = %v", r, s.Has(r))
		}
	}
}
