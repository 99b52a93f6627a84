// Package cache implements a software-simulated processor cache
// hierarchy. The paper measures locality with PAPI hardware counters
// (L2/L3 misses, Table 3; per-degree LLC miss rates, Figure 1); Go has
// no portable access to hardware performance counters, so this package
// substitutes a deterministic trace-driven simulator: kernels replay
// their memory reference streams against a configurable multi-level
// set-associative LRU hierarchy modelled on the paper's Xeon Gold 6130
// (32 KB L1, 1 MB L2, 22 MB shared L3, NINE, 64-byte lines).
//
// The simulator is intentionally simple — no MESI, no prefetcher, no
// timing — because the phenomenon under study (whether the working set
// of random accesses fits a level) is purely a capacity/associativity
// question.
package cache

import "fmt"

// Level identifies a cache level in a Hierarchy.
type Level int

// Cache levels. The memory "level" counts accesses that missed every
// cache level.
const (
	L1 Level = iota
	L2
	L3
	Memory
)

func (l Level) String() string {
	switch l {
	case L1:
		return "L1"
	case L2:
		return "L2"
	case L3:
		return "L3"
	case Memory:
		return "Memory"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// LevelConfig sizes one cache level.
type LevelConfig struct {
	// SizeBytes is the total capacity. Must be a multiple of
	// Ways*LineSize.
	SizeBytes int
	// Ways is the associativity. Use 1 for direct-mapped.
	Ways int
}

// Config describes a hierarchy. Levels with SizeBytes == 0 are
// omitted (e.g. a two-level hierarchy).
type Config struct {
	LineSize int
	Levels   []LevelConfig
	// ModelPrefetch treats sequential (ReadRange) accesses as covered
	// by the hardware prefetcher: they still install lines — and so
	// still displace other data — but their misses stay out of the
	// demand-miss statistics. This mirrors the paper's observation that the
	// streamed topology/buffer accesses are "sequential, i.e.,
	// assisted by prefetching" (§4.3), leaving the demand misses to
	// reflect the random vertex-data accesses the paper's analysis
	// is about.
	ModelPrefetch bool
}

// XeonGold6130 returns the per-core geometry of the paper's evaluation
// machine: 32 KB 8-way L1D, 1 MB 16-way L2, and the 22 MB 11-way
// shared L3 (per socket). Lines are 64 bytes.
func XeonGold6130() Config {
	return Config{
		LineSize: 64,
		Levels: []LevelConfig{
			{SizeBytes: 32 << 10, Ways: 8},
			{SizeBytes: 1 << 20, Ways: 16},
			{SizeBytes: 22 << 20, Ways: 11},
		},
	}
}

// Scaled returns the Xeon geometry divided by factor, used to keep the
// cache:graph size ratio of the paper when simulating graphs that are
// ~1000x smaller than the paper's datasets. Associativity and line
// size are preserved; sizes are rounded down to a multiple of
// ways*linesize with a one-set minimum.
func Scaled(factor int) Config {
	base := XeonGold6130()
	if factor < 1 {
		factor = 1
	}
	for i := range base.Levels {
		lv := &base.Levels[i]
		setBytes := lv.Ways * base.LineSize
		sz := lv.SizeBytes / factor
		if sz < setBytes {
			sz = setBytes
		}
		lv.SizeBytes = sz / setBytes * setBytes
	}
	return base
}

// Validate checks geometry sanity.
func (c Config) Validate() error {
	if c.LineSize < 8 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache: line size %d must be a power of two >= 8", c.LineSize)
	}
	if len(c.Levels) == 0 || len(c.Levels) > 3 {
		return fmt.Errorf("cache: %d levels unsupported (want 1-3)", len(c.Levels))
	}
	for i, lv := range c.Levels {
		if lv.Ways < 1 {
			return fmt.Errorf("cache: level %d ways %d < 1", i, lv.Ways)
		}
		setBytes := lv.Ways * c.LineSize
		if lv.SizeBytes < setBytes || lv.SizeBytes%setBytes != 0 {
			return fmt.Errorf("cache: level %d size %d not a multiple of %d", i, lv.SizeBytes, setBytes)
		}
	}
	return nil
}

// setAssoc is one set-associative LRU cache level.
type setAssoc struct {
	ways     int
	sets     int
	setMask  uint64
	tags     []uint64 // sets*ways entries; 0 means empty (tag 0 is offset)
	stamps   []uint64 // LRU timestamps parallel to tags
	valid    []bool
	clock    uint64
	accesses uint64
	misses   uint64
}

func newSetAssoc(cfg LevelConfig, lineSize int) *setAssoc {
	sets := cfg.SizeBytes / (cfg.Ways * lineSize)
	// Round sets down to a power of two so the index is a mask; the
	// Xeon geometries used here are already powers of two except L3
	// (11-way), whose set count is handled by modulo below.
	s := &setAssoc{
		ways:   cfg.Ways,
		sets:   sets,
		tags:   make([]uint64, sets*cfg.Ways),
		stamps: make([]uint64, sets*cfg.Ways),
		valid:  make([]bool, sets*cfg.Ways),
	}
	if sets&(sets-1) == 0 {
		s.setMask = uint64(sets - 1)
	}
	return s
}

// access looks a line number up, installs it if absent, and reports
// whether it was a hit. When counted is false the access still moves
// LRU state and installs on miss, but no statistics are recorded
// (prefetch-covered accesses).
func (s *setAssoc) access(line uint64, counted bool) bool {
	if counted {
		s.accesses++
	}
	s.clock++
	var set int
	if s.setMask != 0 {
		set = int(line & s.setMask)
	} else {
		set = int(line % uint64(s.sets))
	}
	base := set * s.ways
	victim := base
	oldest := ^uint64(0)
	for w := base; w < base+s.ways; w++ {
		if s.valid[w] && s.tags[w] == line {
			s.stamps[w] = s.clock
			return true
		}
		if !s.valid[w] {
			victim = w
			oldest = 0
		} else if s.stamps[w] < oldest {
			victim = w
			oldest = s.stamps[w]
		}
	}
	if counted {
		s.misses++
	}
	s.tags[victim] = line
	s.stamps[victim] = s.clock
	s.valid[victim] = true
	return false
}

// LevelStats aggregates one level's counters.
type LevelStats struct {
	Accesses uint64
	Misses   uint64
}

// MissRate returns Misses/Accesses, or 0 when there were no accesses.
func (s LevelStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Hierarchy is a multi-level cache simulator. It is not safe for
// concurrent use; parallel kernels are simulated by replaying a
// per-thread interleaving or a single-thread trace (documented at the
// call sites).
type Hierarchy struct {
	lineShift     uint
	levels        []*setAssoc
	loads         uint64
	stores        uint64
	modelPrefetch bool
}

// NewHierarchy builds a Hierarchy from cfg. It panics on an invalid
// config (configs in this repository are static).
func NewHierarchy(cfg Config) *Hierarchy {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	shift := uint(0)
	for 1<<shift < cfg.LineSize {
		shift++
	}
	h := &Hierarchy{lineShift: shift, modelPrefetch: cfg.ModelPrefetch}
	for _, lv := range cfg.Levels {
		h.levels = append(h.levels, newSetAssoc(lv, cfg.LineSize))
	}
	return h
}

// Read simulates a load from addr.
func (h *Hierarchy) Read(addr uint64) {
	h.loads++
	h.refer(addr)
}

// Write simulates a store to addr. Write-allocate: a store miss
// installs the line just as a load does.
func (h *Hierarchy) Write(addr uint64) {
	h.stores++
	h.refer(addr)
}

// ReadRange simulates a sequential load of n bytes starting at addr,
// touching each line once (the access pattern of streaming through
// topology arrays). Under Config.ModelPrefetch these accesses count
// as loads but not in the demand statistics.
func (h *Hierarchy) ReadRange(addr uint64, n int) {
	if n <= 0 {
		return
	}
	line := addr >> h.lineShift
	last := (addr + uint64(n) - 1) >> h.lineShift
	for ; line <= last; line++ {
		h.loads++
		if h.modelPrefetch {
			h.referLineUncounted(line)
		} else {
			h.referLine(line)
		}
	}
}

func (h *Hierarchy) refer(addr uint64) {
	h.referLine(addr >> h.lineShift)
}

func (h *Hierarchy) referLine(line uint64) {
	for _, lv := range h.levels {
		if lv.access(line, true) {
			return
		}
	}
}

// referLineUncounted installs/touches the line at every level without
// recording demand statistics.
func (h *Hierarchy) referLineUncounted(line uint64) {
	for _, lv := range h.levels {
		if lv.access(line, false) {
			return
		}
	}
}

// Stats returns the counters of the given level. Memory returns
// accesses that missed the last level (as Accesses == Misses).
func (h *Hierarchy) Stats(l Level) LevelStats {
	if int(l) < len(h.levels) {
		lv := h.levels[l]
		return LevelStats{Accesses: lv.accesses, Misses: lv.misses}
	}
	last := h.levels[len(h.levels)-1]
	return LevelStats{Accesses: last.misses, Misses: last.misses}
}

// MemoryAccesses returns the total simulated loads and stores — the
// "Memory Accesses" column of Table 3.
func (h *Hierarchy) MemoryAccesses() (loads, stores uint64) {
	return h.loads, h.stores
}

// LastLevel returns the index of the last cache level (the "LLC").
func (h *Hierarchy) LastLevel() Level {
	return Level(len(h.levels) - 1)
}
