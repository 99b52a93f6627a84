package sched

import "testing"

// checkBounds asserts bounds are monotone and cover [0, n].
func checkBounds(t *testing.T, label string, bounds []int, nparts, n int) {
	t.Helper()
	if len(bounds) != nparts+1 {
		t.Fatalf("%s: %d boundaries, want %d", label, len(bounds), nparts+1)
	}
	if bounds[0] != 0 || bounds[nparts] != n {
		t.Fatalf("%s: bounds %v do not cover [0, %d]", label, bounds, n)
	}
	for p := 0; p < nparts; p++ {
		if bounds[p] > bounds[p+1] {
			t.Fatalf("%s: bounds %v not monotone at %d", label, bounds, p)
		}
	}
}

// TestEdgeBalancedPartsBoundaries pins the CSR partitioner at boundary
// shapes: an empty vertex range, one vertex, more parts than vertices,
// all-equal degrees, and an all-zero-degree range.
func TestEdgeBalancedPartsBoundaries(t *testing.T) {
	for _, tc := range []struct {
		name   string
		index  []int64
		nparts int
	}{
		{"empty", []int64{0}, 3},
		{"one-vertex", []int64{0, 5}, 3},
		{"parts-gt-len", []int64{0, 2, 4}, 7},
		{"all-equal", []int64{0, 3, 6, 9, 12, 15, 18}, 3},
		{"all-zero", []int64{0, 0, 0, 0, 0}, 2},
		{"one-hub", []int64{0, 0, 100, 100, 101}, 4},
	} {
		n := len(tc.index) - 1
		bounds := EdgeBalancedParts(tc.index, tc.nparts)
		checkBounds(t, tc.name, bounds, tc.nparts, n)
		var covered int64
		for p := 0; p < tc.nparts; p++ {
			covered += tc.index[bounds[p+1]] - tc.index[bounds[p]]
		}
		if covered != tc.index[n] {
			t.Fatalf("%s: parts cover %d edges, want %d", tc.name, covered, tc.index[n])
		}
	}
	// All-equal degrees must split the vertex range near-evenly: no
	// part may exceed ceil(n/nparts) vertices.
	bounds := EdgeBalancedParts([]int64{0, 3, 6, 9, 12, 15, 18}, 3)
	for p := 0; p < 3; p++ {
		if sz := bounds[p+1] - bounds[p]; sz > 2 {
			t.Fatalf("all-equal degrees: part %d holds %d of 6 vertices", p, sz)
		}
	}
}

// TestEdgeBalancedPartsListBoundaries pins the row-list partitioner —
// the degree-aware sparse schedule's heavy-row splitter — at the same
// boundary shapes: empty list, one row, more parts than rows, and
// all-equal weights.
func TestEdgeBalancedPartsListBoundaries(t *testing.T) {
	index := []int64{0, 4, 4, 10, 12, 12, 20} // degrees 4,0,6,2,0,8
	for _, tc := range []struct {
		name   string
		rows   []int32
		nparts int
	}{
		{"empty", nil, 3},
		{"one-row", []int32{2}, 3},
		{"parts-gt-len", []int32{0, 5}, 6},
		{"all-equal", []int32{0, 0, 0, 0}, 2},
		{"mixed", []int32{5, 2, 0, 3, 1}, 3},
	} {
		bounds := EdgeBalancedPartsList(index, tc.rows, tc.nparts)
		checkBounds(t, tc.name, bounds, tc.nparts, len(tc.rows))
	}
	// All-equal weights split the list evenly.
	bounds := EdgeBalancedPartsList(index, []int32{0, 0, 0, 0}, 2)
	if bounds[1] != 2 {
		t.Fatalf("all-equal weights: middle boundary %d, want 2", bounds[1])
	}
}
