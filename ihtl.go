// Package ihtl is the public API of this repository: a Go
// implementation of in-Hub Temporal Locality (iHTL) SpMV-based graph
// processing, after Koohi Esfahani, Kilpatrick & Vandierendonck,
// "Exploiting in-Hub Temporal Locality in SpMV-based Graph
// Processing", ICPP 2021.
//
// iHTL observes that pull-direction SpMV has poor temporal locality
// at in-hub vertices (their huge in-neighbour sets sweep the cache)
// and fixes it by traversing the in-edges of hubs in push direction
// through cache-resident per-thread buffers ("flipped blocks"), while
// the remaining edges stay in pull direction ("sparse block"). Every
// edge is traversed exactly once per iteration.
//
// Quick start:
//
//	pool := ihtl.NewPool(0)                        // one worker per core
//	defer pool.Close()
//	g, _ := ihtl.GenerateRMATOn(pool, 18, 16, 42)  // or ihtl.LoadGraph(path)
//	eng, _ := ihtl.NewEngine(g, pool, ihtl.Params{})
//	ranks, _ := ihtl.PageRank(eng, pool, ihtl.PageRankOptions{})
//
// See the examples/ directory for runnable programs and DESIGN.md for
// the system inventory.
package ihtl

import (
	"context"
	"fmt"
	"io"
	"sync"

	"ihtl/internal/analytics"
	"ihtl/internal/core"
	"ihtl/internal/gen"
	"ihtl/internal/graph"
	"ihtl/internal/sched"
	"ihtl/internal/spmv"
)

// Graph is a directed graph in dual CSR/CSC form. See
// internal/graph.Graph for methods.
type Graph = graph.Graph

// Edge is a directed edge.
type Edge = graph.Edge

// VID is a vertex identifier.
type VID = graph.VID

// Pool is a reusable worker pool shared by all engines.
type Pool = sched.Pool

// Params controls iHTL construction: hubs per flipped block (or the
// cache size to derive it from), the flipped-block admission
// threshold, and limits. The zero value takes the paper's defaults
// (B = 1 MiB L2 / 8-byte vertex data, 50% threshold) and, like the
// paper, flips a hub only when its in-neighbours' data does not fit
// that cache: a graph whose whole vertex data fits it (131 072
// vertices at 8 bytes; 16 384 through ForBatch(8)) is built as one
// pull-traversed block in original vertex order. Setting HubsPerBlock
// asks for flipped blocks whatever the graph's size.
type Params = core.Params

// IHTL is a built iHTL graph: relabeling arrays, flipped blocks and
// the sparse block.
type IHTL = core.IHTL

// BuildBreakdown reports where preprocessing time went (rank, select,
// relabel, blocks; wall and per-worker busy), mirroring the engine's
// Step Breakdown. Obtain it via (*Engine).IHTL().BuildStats().
type BuildBreakdown = core.BuildBreakdown

// Stepper is the one interface of all SpMV engines: one step computes
// dst[v] = Σ src[u] over in-neighbours u, for k interleaved lanes, and
// runs an element-wise Epilogue over the engine's slots.
type Stepper = spmv.Stepper

// Epilogue is the element-wise tail of a StepCtx: a function run once
// per slot of the engine's row grid, and whether it may stream (run on a
// slot as soon as its rows are final). The zero value is none.
type Epilogue = spmv.Epilogue

// PageRankOptions configures PageRank.
type PageRankOptions = analytics.PageRankOptions

// EngineOptions tunes the iHTL engine beyond Params: the opt-in
// numeric-health watchdog. Its other fields are deprecated and read by
// no code.
type EngineOptions = core.EngineOptions

// SparseKernel named the engine's sparse-block kernel.
//
// Deprecated: the uniform pull is the only sparse kernel, and
// EngineOptions.SparseKernel is read by no code.
type SparseKernel = core.SparseKernel

// Sparse-block kernel names, kept only so that code setting the
// deprecated EngineOptions.SparseKernel still compiles: every engine
// runs the pull whatever it says.
//
// Deprecated: see SparseKernel.
const (
	SparsePull = core.SparsePull
	SparsePB   = core.SparsePB
)

// BlockEncoding named the adjacency form the engine walked.
//
// Deprecated: every engine walks the flat adjacency, and
// EngineOptions.BlockEncoding is read by no code.
type BlockEncoding = core.BlockEncoding

// Block encoding names, kept only so that code setting the deprecated
// EngineOptions.BlockEncoding still compiles: every engine walks the
// flat adjacency whatever it says, and a packed v2 file is decoded to
// it when it is opened.
//
// Deprecated: see BlockEncoding.
const (
	EncodingAuto   = core.EncodingAuto
	EncodingFlat   = core.EncodingFlat
	EncodingVarint = core.EncodingVarint
)

// EngineFile is a serialised iHTL graph opened by OpenEngineFile —
// memory-mapped when the file is in the v2 segment format and the
// platform allows it, resident otherwise. Close releases the mapping;
// the IHTL (and engines over it) must not be used afterwards.
type EngineFile = core.EngineFile

// OpenEngineFile opens a serialised iHTL graph (either on-disk
// version). v2 files are mapped: the relabeling and row offsets page in
// on demand, a raw file's adjacency too, and a packed file's adjacency
// is decoded into the heap when it is opened (4 bytes per edge), so
// every engine over it walks the flat arrays.
func OpenEngineFile(path string) (*EngineFile, error) { return core.OpenEngineFile(path) }

// HealthPolicy configures the opt-in numeric watchdog: the SpMV
// result vector is scanned for NaN/±Inf after each Step, fused into
// the engine's epilogue sweep.
type HealthPolicy = spmv.HealthPolicy

// HealthMode selects what the watchdog does on a non-finite value.
type HealthMode = spmv.HealthMode

// Watchdog modes: off, surface a *NumericError, clamp the offending
// values to zero and continue, or report an error asking the driver
// to roll back to its last checkpoint.
const (
	HealthOff      = spmv.HealthOff
	HealthError    = spmv.HealthError
	HealthClamp    = spmv.HealthClamp
	HealthRollback = spmv.HealthRollback
)

// NumericError reports non-finite values found by the watchdog.
type NumericError = spmv.NumericError

// PanicError wraps a panic captured in a pool worker: the panic
// value, the worker index, and the stack at capture time. Engines'
// Ctx entrypoints return it instead of crashing the process.
type PanicError = sched.PanicError

// ErrPoolClosed is returned by Ctx entrypoints dispatched on a
// closed Pool.
var ErrPoolClosed = sched.ErrPoolClosed

// Checkpoint is a resumable snapshot of an iterative driver; see
// PageRankOptions.CheckpointEvery/Resume and Encode/DecodeCheckpoint.
type Checkpoint = analytics.Checkpoint

// EncodeCheckpoint writes a checkpoint in the versioned binary
// format; DecodeCheckpoint reads it back.
func EncodeCheckpoint(w io.Writer, c *Checkpoint) error { return analytics.EncodeCheckpoint(w, c) }

// DecodeCheckpoint reads a checkpoint written by EncodeCheckpoint.
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) { return analytics.DecodeCheckpoint(r) }

// NewPool creates a worker pool; workers <= 0 selects GOMAXPROCS.
// Close it when done.
func NewPool(workers int) *Pool { return sched.NewPool(workers) }

// BuildGraph constructs a graph from an edge list over [0, numV),
// deduplicating edges and removing zero-degree vertices as the paper
// does for its datasets. It builds on one worker; use BuildGraphOn to
// build across a pool's workers.
func BuildGraph(numV int, edges []Edge) (*Graph, error) {
	return BuildGraphOn(nil, numV, edges)
}

// BuildGraphOn is BuildGraph parallelised on pool: the bucketing of
// the edge list, the two transpositions that order every adjacency
// list, dedup and zero-degree compaction all run across the pool's
// workers and produce a graph bit-for-bit the same for every worker
// count. A nil pool is one worker: the same passes on a private
// one-worker pool.
func BuildGraphOn(pool *Pool, numV int, edges []Edge) (*Graph, error) {
	return BuildGraphCtx(nil, pool, numV, edges)
}

// BuildGraphCtx is BuildGraphOn under a context: cancelling ctx stops
// the multi-pass build between phases (and mid-pass at the next chunk
// claim on a pool) and returns ctx.Err(); a panic in a pool worker
// comes back as a *PanicError. ctx may be nil.
func BuildGraphCtx(ctx context.Context, pool *Pool, numV int, edges []Edge) (*Graph, error) {
	opt := graph.DefaultBuildOptions()
	opt.Pool = pool
	return graph.BuildCtx(ctx, numV, edges, opt)
}

// LoadGraph reads a graph from the binary format written by
// (*Graph).SaveFile.
func LoadGraph(path string) (*Graph, error) { return graph.LoadFile(path) }

// GenerateRMAT generates a social-network-like R-MAT graph with
// 2^scale vertices and ~2^scale*edgeFactor edges (Graph500
// parameters).
func GenerateRMAT(scale, edgeFactor int, seed uint64) (*Graph, error) {
	return GenerateRMATOn(nil, scale, edgeFactor, seed)
}

// GenerateRMATOn is GenerateRMAT with the graph build parallelised on
// pool (a nil pool is one worker). The edge stream is deterministic and
// the build is bit-for-bit the same for every worker count, so the
// resulting graph does not depend on the pool.
func GenerateRMATOn(pool *Pool, scale, edgeFactor int, seed uint64) (*Graph, error) {
	cfg := gen.DefaultRMAT(scale, edgeFactor, seed)
	cfg.Pool = pool
	return gen.RMAT(cfg)
}

// GenerateWeb generates a web-like graph with n pages: extreme
// asymmetric in-hubs and host-block community structure.
func GenerateWeb(n int, seed uint64) (*Graph, error) {
	return GenerateWebOn(nil, n, seed)
}

// GenerateWebOn is GenerateWeb with the graph build parallelised on
// pool (a nil pool is one worker); like GenerateRMATOn the result is
// independent of the pool.
func GenerateWebOn(pool *Pool, n int, seed uint64) (*Graph, error) {
	cfg := gen.DefaultWeb(n, seed)
	cfg.Pool = pool
	return gen.Web(cfg)
}

// Engine is an iHTL SpMV engine over a fixed graph. It implements
// Stepper in iHTL (relabeled) vertex-ID space and exposes the
// relabeling through IHTL().
type Engine struct {
	ih  *core.IHTL
	eng spmv.Stepper
	g   *graph.Graph

	// deg holds the out-degrees in stepping-ID order, which the
	// PageRank wrappers all scale by: derived on first use, once.
	degOnce sync.Once
	deg     []int

	// ppr holds the n×K arrays of PersonalizedPageRank from one call
	// to the next.
	ppr analytics.PPRWorkspace
}

// NewEngine builds the iHTL graph of g with the given parameters and
// prepares an Algorithm 3 engine on the pool. Preprocessing (hub
// ranking, relabeling, block construction) runs across the same pool
// the engine later steps on; the per-phase times are available via
// IHTL().BuildStats().
func NewEngine(g *Graph, pool *Pool, p Params) (*Engine, error) {
	return NewEngineOpts(nil, g, pool, p, EngineOptions{})
}

// NewEngineOpts is NewEngine with explicit engine options (the
// numeric-health watchdog) and a context governing the preprocessing build:
// cancelling ctx aborts hub ranking, relabeling and block construction
// between phases (mid-pass at the next chunk claim) and returns
// ctx.Err(). ctx may be nil. The deprecated opt.Shards,
// opt.StaticFlipped, opt.Phased, opt.SparseKernel and opt.BlockEncoding
// are ignored: every engine is the one single-graph engine, its fused
// pipeline over the flat adjacency.
func NewEngineOpts(ctx context.Context, g *Graph, pool *Pool, p Params, opt EngineOptions) (*Engine, error) {
	ih, err := core.BuildWithCtx(ctx, g, p, pool)
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngineOpts(ih, pool, opt)
	if err != nil {
		return nil, err
	}
	return &Engine{ih: ih, eng: eng, g: g}, nil
}

// Step implements Stepper (in iHTL ID space).
func (e *Engine) Step(src, dst []float64) { e.eng.Step(src, dst) }

// StepCtx implements Stepper (in iHTL ID space): k interleaved SpMVs
// plus epi, under a context. Cancelling ctx stops the fused dispatch at
// the next chunk claim and returns ctx.Err(); a panic in a pool worker
// returns a *PanicError and a numeric-health violation a
// *NumericError, instead of panicking. After a failed StepCtx the
// engine's internal state is reset, so the next clean step produces
// bit-for-bit the same result it would have without the failure.
func (e *Engine) StepCtx(ctx context.Context, src, dst []float64, k int, epi Epilogue) error {
	return e.eng.StepCtx(ctx, src, dst, k, epi)
}

// EpiSlots implements Stepper.
func (e *Engine) EpiSlots() (slots int, streamed bool) { return e.eng.EpiSlots() }

// NumVertices implements Stepper.
func (e *Engine) NumVertices() int { return e.eng.NumVertices() }

// IHTL returns the underlying iHTL graph (relabeling arrays, blocks,
// statistics).
func (e *Engine) IHTL() *IHTL { return e.ih }

// Graph returns the original graph the engine was built from.
func (e *Engine) Graph() *Graph { return e.g }

// newID maps an original ID to the engine's stepping ID space.
func (e *Engine) newID(v VID) VID { return e.ih.NewID[v] }

// outDegrees returns the out-degree of every vertex in stepping-ID
// order. Read-only to callers.
func (e *Engine) outDegrees() []int {
	e.degOnce.Do(func() {
		e.deg = make([]int, e.NumVertices())
		for v, nv := range e.ih.NewID {
			e.deg[nv] = e.g.OutDegree(VID(v))
		}
	})
	return e.deg
}

// Direction selects a baseline traversal kernel for NewBaselineEngine.
type Direction = spmv.Direction

// Baseline traversal directions (the paper's comparison points).
const (
	Pull            = spmv.Pull
	PushAtomic      = spmv.PushAtomic
	PushBuffered    = spmv.PushBuffered
	PushPartitioned = spmv.PushPartitioned
)

// NewBaselineEngine prepares a pull/push SpMV engine (the paper's
// baselines) over g, operating in original vertex-ID space.
func NewBaselineEngine(g *Graph, pool *Pool, dir Direction) (Stepper, error) {
	return spmv.NewEngine(g, pool, dir, spmv.Options{})
}

// PageRank runs PageRank over the iHTL engine and returns ranks in
// ORIGINAL vertex-ID space (the relabeling is applied internally). Each
// iteration is one step with the update as its epilogue, on the
// engine's own pool; pool is not used and may be nil.
func PageRank(e *Engine, pool *Pool, opt PageRankOptions) ([]float64, error) {
	return PageRankCtx(nil, e, pool, opt)
}

// PageRankCtx is PageRank under a context: cancelling ctx stops the
// run mid-Step at the next chunk claim and returns ctx.Err(), and
// engine failures (worker panics, numeric-health violations) surface
// as errors instead of panics. Checkpoints taken through
// opt.CheckpointEvery/OnCheckpoint — and consumed through opt.Resume
// — are in iHTL (relabeled) ID space and belong to this engine's
// graph; resuming restores the exact trajectory bit-for-bit. ctx may
// be nil.
func PageRankCtx(ctx context.Context, e *Engine, pool *Pool, opt PageRankOptions) ([]float64, error) {
	res, err := analytics.RunPageRankCtx(ctx, e.eng, e.outDegrees(), pool, opt)
	if err != nil {
		return nil, err
	}
	out := make([]float64, e.NumVertices())
	e.ih.PermuteToOld(res.Ranks, out)
	return out, nil
}

// PageRankBaseline runs PageRank over any Stepper that operates in
// original ID space (e.g. a NewBaselineEngine result). The update runs
// as each step's epilogue, on the engine's own pool; pool is not used
// and may be nil.
func PageRankBaseline(g *Graph, s Stepper, pool *Pool, opt PageRankOptions) ([]float64, error) {
	if s.NumVertices() != g.NumV {
		return nil, fmt.Errorf("ihtl: engine/graph vertex count mismatch")
	}
	deg := make([]int, g.NumV)
	for v := range deg {
		deg[v] = g.OutDegree(VID(v))
	}
	res, err := analytics.RunPageRank(s, deg, pool, opt)
	if err != nil {
		return nil, err
	}
	return res.Ranks, nil
}
