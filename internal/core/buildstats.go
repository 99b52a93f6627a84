package core

import "time"

// BuildBreakdown reports where preprocessing time went in one
// Build/BuildWith call, mirroring the Step Breakdown: per-phase wall
// time plus the summed per-worker busy time of the pooled phases. Every
// build fills the busy fields, a nil-pool build (one worker) included.
// Wall exceeding busy/workers indicates dispatch overhead or a sequential
// residue. Hub selection records no busy time.
type BuildBreakdown struct {
	// Rank is the hub-ranking phase (parallel counting sort on
	// in-degree).
	Rank time.Duration
	// Select is the §3.3 flipped-block admission: blocks one after the
	// other, each block's source count on the pool.
	Select time.Duration
	// Relabel covers vertex classification (hub/VWEH/FV) and the
	// NewID/OldID assignment.
	Relabel time.Duration
	// Blocks covers flipped-block and sparse-block construction.
	Blocks time.Duration
	// Wall is the total Build wall time including validation and the
	// final invariant check.
	Wall time.Duration

	// RankBusy, RelabelBusy and BlocksBusy are the per-phase busy
	// times summed over all workers.
	RankBusy, RelabelBusy, BlocksBusy time.Duration
}

// buildClock accumulates one worker's busy time per build phase.
// Padded so two workers' clocks never share a cache line (3 × 8-byte
// durations + 40 bytes = 64).
type buildClock struct {
	rank, relabel, blocks time.Duration
	_                     [5]int64
}

// BuildStats reports the phase breakdown of the Build/BuildWith call
// that created ih. The breakdown is not serialized; graphs loaded
// from disk report zero.
func (ih *IHTL) BuildStats() BuildBreakdown { return ih.buildStats }
