package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitMix64KnownValues(t *testing.T) {
	s := NewSplitMix64(1234567)
	got := []uint64{s.Next(), s.Next(), s.Next()}
	// Determinism: re-seeding reproduces the stream.
	s2 := NewSplitMix64(1234567)
	for i, g := range got {
		if n := s2.Next(); n != g {
			t.Fatalf("stream not deterministic at %d: %x vs %x", i, g, n)
		}
	}
	// Distinctness: consecutive outputs must differ.
	if got[0] == got[1] || got[1] == got[2] {
		t.Fatalf("suspicious repeated outputs: %x", got)
	}
}

func TestMix64Bijection(t *testing.T) {
	seen := make(map[uint64]uint64)
	for i := uint64(0); i < 10000; i++ {
		h := Mix64(i)
		if prev, dup := seen[h]; dup {
			t.Fatalf("Mix64 collision: Mix64(%d) == Mix64(%d)", i, prev)
		}
		seen[h] = i
	}
}

func TestXoshiroDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("divergence at step %d: %x vs %x", i, x, y)
		}
	}
	c := New(43)
	if a0, c0 := New(42).Uint64(), c.Uint64(); a0 == c0 {
		t.Fatalf("different seeds produced identical first output %x", a0)
	}
}

func TestUint64nBounds(t *testing.T) {
	rng := New(7)
	for _, n := range []uint64{1, 2, 3, 10, 1 << 20, 1<<63 + 12345} {
		for i := 0; i < 200; i++ {
			if v := rng.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nUniform(t *testing.T) {
	rng := New(99)
	const n = 8
	const draws = 80000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[rng.Intn(n)]++
	}
	expect := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-expect) > 5*math.Sqrt(expect) {
			t.Errorf("bucket %d count %d too far from expected %.0f", i, c, expect)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		rng := New(seed)
		n := 1 + rng.Intn(500)
		p := rng.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64Range(t *testing.T) {
	rng := New(11)
	for i := 0; i < 10000; i++ {
		f := rng.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestZipfRangeAndSkew(t *testing.T) {
	rng := New(3)
	const n = 1000
	z := NewZipf(rng, 1.5, 1, n)
	counts := make([]int, n)
	const draws = 200000
	for i := 0; i < draws; i++ {
		v := z.Uint64()
		if v >= n {
			t.Fatalf("Zipf value %d out of range", v)
		}
		counts[v]++
	}
	// Rank 0 must dominate: a power law concentrates mass at the head.
	if counts[0] < counts[1] || counts[0] < draws/20 {
		t.Fatalf("Zipf head not dominant: counts[0]=%d counts[1]=%d", counts[0], counts[1])
	}
	// Monotone-ish decay across decades.
	head, tail := 0, 0
	for i := 0; i < 10; i++ {
		head += counts[i]
	}
	for i := n - 10; i < n; i++ {
		tail += counts[i]
	}
	if head <= tail*10 {
		t.Fatalf("Zipf tail too heavy: head=%d tail=%d", head, tail)
	}
}

func TestZipfInvalidParams(t *testing.T) {
	cases := []func(){
		func() { NewZipf(nil, 1.5, 1, 10) },
		func() { NewZipf(New(1), 1.0, 1, 10) },
		func() { NewZipf(New(1), 1.5, 0.5, 10) },
		func() { NewZipf(New(1), 1.5, 1, 0) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestPowerLawDegreesBounds(t *testing.T) {
	rng := New(17)
	degs := PowerLawDegrees(rng, 5000, 2.1, 1, 1000)
	if len(degs) != 5000 {
		t.Fatalf("wrong length %d", len(degs))
	}
	maxSeen := 0
	for _, d := range degs {
		if d < 1 || d > 1000 {
			t.Fatalf("degree %d out of [1,1000]", d)
		}
		if d > maxSeen {
			maxSeen = d
		}
	}
	// With 5000 draws at alpha=2.1 the tail should be exercised.
	if maxSeen < 50 {
		t.Fatalf("power law tail never sampled, max=%d", maxSeen)
	}
	// Skew: median must be tiny relative to max.
	small := 0
	for _, d := range degs {
		if d <= 3 {
			small++
		}
	}
	if small < len(degs)/2 {
		t.Fatalf("degree distribution not skewed: only %d/%d small degrees", small, len(degs))
	}
}

func TestShuffleDegenerateCases(t *testing.T) {
	rng := New(2)
	rng.Shuffle(0, func(i, j int) { t.Fatal("swap called for n=0") })
	rng.Shuffle(1, func(i, j int) { t.Fatal("swap called for n=1") })
}

func BenchmarkXoshiroUint64(b *testing.B) {
	rng := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += rng.Uint64()
	}
	_ = sink
}

func TestPowerLawDegreesInvalid(t *testing.T) {
	cases := []func(){
		func() { PowerLawDegrees(New(1), -1, 2, 1, 10) },
		func() { PowerLawDegrees(New(1), 5, 1.0, 1, 10) },
		func() { PowerLawDegrees(New(1), 5, 2, -1, 10) },
		func() { PowerLawDegrees(New(1), 5, 2, 10, 5) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
	if got := PowerLawDegrees(New(1), 0, 2, 1, 10); len(got) != 0 {
		t.Fatal("n=0 should give empty slice")
	}
}
