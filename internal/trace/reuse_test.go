package trace

import (
	"testing"
	"testing/quick"

	"ihtl/internal/core"
	"ihtl/internal/gen"
	"ihtl/internal/graph"
)

func TestReuseDistancesKnownStreams(t *testing.T) {
	// a b a : distance of second 'a' is 1 (only b in between).
	d := ReuseDistances([]uint64{1, 2, 1})
	want := []int64{Infinite, Infinite, 1}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("d = %v, want %v", d, want)
		}
	}
	// Immediate reuse: distance 0.
	d = ReuseDistances([]uint64{5, 5, 5})
	if d[1] != 0 || d[2] != 0 {
		t.Fatalf("immediate reuse: %v", d)
	}
	// Duplicate intermediates count once: a b b a -> distance 1.
	d = ReuseDistances([]uint64{1, 2, 2, 1})
	if d[3] != 1 {
		t.Fatalf("a b b a distance = %d, want 1", d[3])
	}
	// Cyclic sweep over k lines: steady-state distance k-1.
	stream := make([]uint64, 0, 40)
	for pass := 0; pass < 4; pass++ {
		for line := uint64(0); line < 10; line++ {
			stream = append(stream, line)
		}
	}
	d = ReuseDistances(stream)
	for i := 10; i < len(d); i++ {
		if d[i] != 9 {
			t.Fatalf("cyclic distance at %d = %d, want 9", i, d[i])
		}
	}
	if len(ReuseDistances(nil)) != 0 {
		t.Fatal("empty stream should give empty result")
	}
}

// referenceReuse computes stack distance by brute force.
func referenceReuse(stream []uint64) []int64 {
	out := make([]int64, len(stream))
	for i, line := range stream {
		prev := -1
		for j := i - 1; j >= 0; j-- {
			if stream[j] == line {
				prev = j
				break
			}
		}
		if prev < 0 {
			out[i] = Infinite
			continue
		}
		distinct := map[uint64]bool{}
		for j := prev + 1; j < i; j++ {
			distinct[stream[j]] = true
		}
		out[i] = int64(len(distinct))
	}
	return out
}

func TestReuseDistancesMatchesReference(t *testing.T) {
	f := func(raw []uint8) bool {
		stream := make([]uint64, len(raw))
		for i, r := range raw {
			stream[i] = uint64(r % 16)
		}
		got := ReuseDistances(stream)
		want := referenceReuse(stream)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramAndHitRatio(t *testing.T) {
	d := []int64{Infinite, 0, 1, 2, 5, 100, Infinite}
	if r := HitRatioAt(d, 3); r != 3.0/7 {
		t.Fatalf("HitRatioAt(3) = %v", r)
	}
	if HitRatioAt(nil, 10) != 0 {
		t.Fatal("empty hit ratio should be 0")
	}
	if m := MedianFinite(d); m != 2 {
		t.Fatalf("median = %d", m)
	}
	if MedianFinite([]int64{Infinite}) != 0 {
		t.Fatal("all-cold median should be 0")
	}
}

func TestIHTLImprovesHubReuseDistance(t *testing.T) {
	// The paper's claim in reuse-distance form: iHTL's random-access
	// stream must hit far more often than pull's at the L2-equivalent
	// capacity on a hubby graph larger than that capacity.
	g, err := gen.RMAT(gen.RMATConfig{
		Scale: 14, EdgeFactor: 12, A: 0.57, B: 0.19, C: 0.19, Noise: 0.1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	const vertexBytes, lineBytes = 8, 64
	ih, err := core.Build(g, core.Params{CacheBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	pull := ReuseDistances(PullRandomStream(g, vertexBytes, lineBytes))
	ihtl := ReuseDistances(IHTLRandomStream(ih, vertexBytes, lineBytes))

	capLines := int64((16 << 10) / lineBytes) // lines in the scaled L2
	pullHit := HitRatioAt(pull, capLines)
	ihtlHit := HitRatioAt(ihtl, capLines)
	if ihtlHit < pullHit+0.2 {
		t.Fatalf("iHTL hit ratio %.3f not well above pull %.3f at L2 capacity", ihtlHit, pullHit)
	}
}

func TestStreamLengthsMatchEdges(t *testing.T) {
	g := graph.PaperExample()
	s := PullRandomStream(g, 8, 64)
	if int64(len(s)) != g.NumE {
		t.Fatalf("pull stream %d accesses, want %d", len(s), g.NumE)
	}
	ih, err := core.Build(g, core.Params{HubsPerBlock: 2})
	if err != nil {
		t.Fatal(err)
	}
	is := IHTLRandomStream(ih, 8, 64)
	if int64(len(is)) != g.NumE {
		t.Fatalf("iHTL stream %d accesses, want %d", len(is), g.NumE)
	}
}
