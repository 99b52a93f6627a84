package cache

import (
	"testing"
	"testing/quick"
)

func tinyConfig() Config {
	// 4 lines of 64 B in 2 sets x 2 ways for L1; 16 lines for L2.
	return Config{
		LineSize: 64,
		Levels: []LevelConfig{
			{SizeBytes: 4 * 64, Ways: 2},
			{SizeBytes: 16 * 64, Ways: 4},
		},
	}
}

func TestConfigValidate(t *testing.T) {
	if err := XeonGold6130().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{LineSize: 60, Levels: []LevelConfig{{SizeBytes: 64, Ways: 1}}},
		{LineSize: 64, Levels: nil},
		{LineSize: 64, Levels: []LevelConfig{{SizeBytes: 100, Ways: 1}}},
		{LineSize: 64, Levels: []LevelConfig{{SizeBytes: 64, Ways: 0}}},
		{LineSize: 64, Levels: make([]LevelConfig, 4)},
	}
	for i, c := range bad {
		if c.Validate() == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestScaledPreservesStructure(t *testing.T) {
	c := Scaled(1000)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	base := XeonGold6130()
	for i := range c.Levels {
		if c.Levels[i].Ways != base.Levels[i].Ways {
			t.Error("scaling changed associativity")
		}
		if c.Levels[i].SizeBytes >= base.Levels[i].SizeBytes {
			t.Error("scaling did not shrink")
		}
	}
	// Degenerate factor clamps to one set.
	c2 := Scaled(1 << 30)
	if err := c2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestColdMissThenHit(t *testing.T) {
	h := NewHierarchy(tinyConfig())
	h.Read(0)
	if s := h.Stats(L1); s.Accesses != 1 || s.Misses != 1 {
		t.Fatalf("cold access: %+v", s)
	}
	h.Read(8) // same line
	if s := h.Stats(L1); s.Accesses != 2 || s.Misses != 1 {
		t.Fatalf("same-line access missed: %+v", s)
	}
	h.Read(64) // next line
	if s := h.Stats(L1); s.Misses != 2 {
		t.Fatalf("distinct line should miss: %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	// L1: 2 sets x 2 ways. Lines 0,2,4 map to set 0 (even lines).
	h := NewHierarchy(tinyConfig())
	h.Read(0 * 64)
	h.Read(2 * 64)
	h.Read(4 * 64) // evicts line 0 (LRU)
	h.Read(0 * 64) // must miss L1 again
	if s := h.Stats(L1); s.Misses != 4 {
		t.Fatalf("LRU eviction wrong: %+v", s)
	}
	// ...but hit in L2 (capacity 16 lines).
	if s := h.Stats(L2); s.Misses != 3 || s.Accesses != 4 {
		t.Fatalf("L2 should have caught the re-reference: %+v", s)
	}
}

func TestLRURecency(t *testing.T) {
	h := NewHierarchy(tinyConfig())
	h.Read(0 * 64)
	h.Read(2 * 64)
	h.Read(0 * 64) // touch 0: now 2 is LRU
	h.Read(4 * 64) // evicts 2
	h.Read(0 * 64) // still resident
	if s := h.Stats(L1); s.Misses != 3 {
		t.Fatalf("recency not honoured: %+v", s)
	}
}

func TestWorkingSetFitsVsOverflows(t *testing.T) {
	// The iHTL capacity argument in miniature: a working set within
	// capacity has ~0 steady-state misses; over capacity it thrashes.
	cfg := Config{LineSize: 64, Levels: []LevelConfig{{SizeBytes: 64 * 64, Ways: 8}}}
	fit := NewHierarchy(cfg)
	for pass := 0; pass < 10; pass++ {
		for i := 0; i < 32; i++ {
			fit.Read(uint64(i) * 64)
		}
	}
	if m := fit.Stats(L1).Misses; m != 32 {
		t.Fatalf("fitting set: %d misses, want 32 cold only", m)
	}
	thrash := NewHierarchy(cfg)
	for pass := 0; pass < 10; pass++ {
		for i := 0; i < 128; i++ { // 2x capacity, LRU worst case
			thrash.Read(uint64(i) * 64)
		}
	}
	if m := thrash.Stats(L1).Misses; m != 1280 {
		t.Fatalf("thrashing set: %d misses, want all 1280", m)
	}
}

func TestWriteCounted(t *testing.T) {
	h := NewHierarchy(tinyConfig())
	h.Write(0)
	h.Read(0)
	loads, stores := h.MemoryAccesses()
	if loads != 1 || stores != 1 {
		t.Fatalf("loads=%d stores=%d", loads, stores)
	}
	if s := h.Stats(L1); s.Misses != 1 {
		t.Fatalf("write-allocate broken: %+v", s)
	}
}

func TestReadRangeTouchesEachLineOnce(t *testing.T) {
	h := NewHierarchy(tinyConfig())
	h.ReadRange(0, 256) // 4 lines
	loads, _ := h.MemoryAccesses()
	if loads != 4 {
		t.Fatalf("ReadRange counted %d loads, want 4", loads)
	}
	h2 := NewHierarchy(tinyConfig())
	h2.ReadRange(60, 8) // straddles a line boundary: 2 lines
	if l, _ := h2.MemoryAccesses(); l != 2 {
		t.Fatalf("straddling range counted %d loads, want 2", l)
	}
	h2.ReadRange(0, 0) // no-op
}

func TestMemoryLevelStats(t *testing.T) {
	h := NewHierarchy(tinyConfig())
	for i := 0; i < 100; i++ {
		h.Read(uint64(i) * 64)
	}
	mem := h.Stats(Memory)
	l2 := h.Stats(L2)
	if mem.Misses != l2.Misses || mem.Accesses != l2.Misses {
		t.Fatalf("memory stats %+v inconsistent with LLC %+v", mem, l2)
	}
	if h.LastLevel() != L2 {
		t.Fatalf("LastLevel = %v", h.LastLevel())
	}
}

func TestNonPowerOfTwoSets(t *testing.T) {
	// 11-way L3 has a non-power-of-two set count; exercise the modulo
	// path.
	cfg := Config{LineSize: 64, Levels: []LevelConfig{{SizeBytes: 3 * 11 * 64, Ways: 11}}}
	h := NewHierarchy(cfg)
	for i := 0; i < 1000; i++ {
		h.Read(uint64(i*64) % 4096)
	}
	s := h.Stats(L1)
	if s.Accesses != 1000 {
		t.Fatalf("accesses %d", s.Accesses)
	}
}

func TestMissRate(t *testing.T) {
	if (LevelStats{}).MissRate() != 0 {
		t.Fatal("zero accesses should give 0 rate")
	}
	if r := (LevelStats{Accesses: 4, Misses: 1}).MissRate(); r != 0.25 {
		t.Fatalf("MissRate = %v", r)
	}
}

func TestHitNeverExceedsAccesses(t *testing.T) {
	f := func(addrs []uint16) bool {
		h := NewHierarchy(tinyConfig())
		for _, a := range addrs {
			h.Read(uint64(a))
		}
		for _, l := range []Level{L1, L2} {
			s := h.Stats(l)
			if s.Misses > s.Accesses {
				return false
			}
		}
		// Inclusion of counts: L2 accesses == L1 misses.
		if h.Stats(L2).Accesses != h.Stats(L1).Misses {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRepeatAccessAlwaysHits(t *testing.T) {
	f := func(addr uint32) bool {
		h := NewHierarchy(tinyConfig())
		h.Read(uint64(addr))
		before := h.Stats(L1).Misses
		h.Read(uint64(addr))
		return h.Stats(L1).Misses == before
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddressSpaceNoOverlap(t *testing.T) {
	var as AddressSpace
	a := as.Alloc(100, 8)
	b := as.Alloc(50, 4)
	if a.Addr(99)+8 > b.Base {
		t.Fatalf("regions overlap: a ends %d, b starts %d", a.Addr(99)+8, b.Base)
	}
	if b.Base%4096 != 0 {
		t.Fatalf("region not page aligned: %d", b.Base)
	}
	if a.Addr(3) != a.Base+24 {
		t.Fatal("Addr arithmetic wrong")
	}
}

func BenchmarkHierarchyAccess(b *testing.B) {
	h := NewHierarchy(XeonGold6130())
	for i := 0; i < b.N; i++ {
		h.Read(uint64(i*64) & (1<<26 - 1))
	}
}

func TestModelPrefetchSeparatesStreamMisses(t *testing.T) {
	cfg := tinyConfig()
	cfg.ModelPrefetch = true
	h := NewHierarchy(cfg)
	// Stream 16 lines: all cold, all covered by the prefetcher.
	h.ReadRange(0, 16*64)
	if m := h.Stats(L2).Misses; m != 0 {
		t.Fatalf("streamed misses leaked into demand stats: %d", m)
	}
	if l, _ := h.MemoryAccesses(); l != 16 {
		t.Fatalf("streamed loads not counted: %d", l)
	}
	// The streamed lines are INSTALLED: a demand read of the most
	// recent one hits L1.
	h.Read(15 * 64)
	if m := h.Stats(L1).Misses; m != 0 {
		t.Fatalf("streamed line not resident: %d L1 misses", m)
	}
	// And they displace: the tiny L1 (4 lines) evicted line 0 long
	// ago — demand miss in L1, but the 16-line L2 still holds it.
	h.Read(0)
	if m := h.Stats(L1).Misses; m != 1 {
		t.Fatalf("displacement not modelled: %d L1 misses", m)
	}
	if m := h.Stats(L2).Misses; m != 0 {
		t.Fatalf("line 0 should still be L2 resident: %d misses", m)
	}
}

func TestNoPrefetchCountsStreamAsDemand(t *testing.T) {
	h := NewHierarchy(tinyConfig()) // ModelPrefetch off
	h.ReadRange(0, 16*64)
	if m := h.Stats(L1).Misses; m != 16 {
		t.Fatalf("expected 16 demand misses, got %d", m)
	}
}
