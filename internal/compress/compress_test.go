package compress

import (
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, index []int64, nbrs []uint32) {
	t.Helper()
	enc := EncodeAdjacency(index, nbrs)
	gotIdx, gotNbrs, err := DecodeAdjacency(enc, len(index)-1, int64(len(nbrs)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range index {
		if gotIdx[i] != index[i] {
			t.Fatalf("index[%d] = %d, want %d", i, gotIdx[i], index[i])
		}
	}
	for i := range nbrs {
		if gotNbrs[i] != nbrs[i] {
			t.Fatalf("nbrs[%d] = %d, want %d", i, gotNbrs[i], nbrs[i])
		}
	}
}

func TestRoundTripBasics(t *testing.T) {
	roundTrip(t, []int64{0}, nil)                  // empty graph
	roundTrip(t, []int64{0, 0, 0}, nil)            // no edges
	roundTrip(t, []int64{0, 3}, []uint32{1, 5, 9}) // one vertex
	roundTrip(t, []int64{0, 2, 2, 5}, []uint32{0, 7, 1, 2, 4_000_000_000})
}

func TestRoundTripProperty(t *testing.T) {
	f := func(degsRaw []uint8, seed uint32) bool {
		// Build a random sorted adjacency.
		var index []int64
		index = append(index, 0)
		var nbrs []uint32
		x := uint32(seed)
		for _, dr := range degsRaw {
			deg := int(dr % 17)
			cur := uint32(0)
			for i := 0; i < deg; i++ {
				x = x*1664525 + 1013904223
				cur += x % 1000
				nbrs = append(nbrs, cur)
			}
			index = append(index, index[len(index)-1]+int64(deg))
		}
		enc := EncodeAdjacency(index, nbrs)
		gotIdx, gotNbrs, err := DecodeAdjacency(enc, len(index)-1, int64(len(nbrs)))
		if err != nil {
			return false
		}
		for i := range index {
			if gotIdx[i] != index[i] {
				return false
			}
		}
		for i := range nbrs {
			if gotNbrs[i] != nbrs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompressionBeatsFlatOnLocalLists(t *testing.T) {
	// Dense local neighbourhoods (small gaps): the realistic case.
	n := 1000
	index := make([]int64, n+1)
	var nbrs []uint32
	for v := 0; v < n; v++ {
		for k := 0; k < 20; k++ {
			nbrs = append(nbrs, uint32(v+k))
		}
		index[v+1] = int64(len(nbrs))
	}
	enc := EncodeAdjacency(index, nbrs)
	flat := len(nbrs)*4 + len(index)*8
	if len(enc) >= flat/2 {
		t.Fatalf("compression too weak: %d vs flat %d", len(enc), flat)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	index := []int64{0, 3}
	nbrs := []uint32{1, 5, 9}
	enc := EncodeAdjacency(index, nbrs)

	if _, _, err := DecodeAdjacency(enc[:len(enc)-1], 1, 3); err == nil {
		t.Error("truncated stream accepted")
	}
	if _, _, err := DecodeAdjacency(enc, 1, 2); err == nil {
		t.Error("wrong edge count accepted")
	}
	if _, _, err := DecodeAdjacency(append(enc, 0), 1, 3); err == nil {
		t.Error("trailing bytes accepted")
	}
	if _, _, err := DecodeAdjacency([]byte{0xFF}, 1, 3); err == nil {
		t.Error("bare continuation byte accepted")
	}
	// Degree exceeding total edges.
	bad := EncodeAdjacency([]int64{0, 3}, []uint32{1, 2, 3})
	if _, _, err := DecodeAdjacency(bad, 1, 1); err == nil {
		t.Error("oversized degree accepted")
	}
	// More vertices than the stream has degree bytes for: rejected
	// before the offsets are allocated.
	if _, _, err := DecodeAdjacency(enc, 1<<40, 3); err == nil {
		t.Error("vertex count beyond the stream accepted")
	}
}
