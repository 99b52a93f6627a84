// Package serve is the ranking-as-a-service layer: an HTTP daemon
// that mmap-loads a serialised engine graph (core.OpenEngineFile) and
// serves personalized-PageRank queries and whole-graph ranking jobs
// from it, with:
//
//   - request coalescing — in-flight PPR queries are packed into the
//     lanes of one batched SpMV traversal (analytics.RunPPRLanes), so
//     K concurrent queries share every edge load; lane results are
//     bit-for-bit what a solo run would produce because every engine
//     splits its flipped tasks over its workers the same way each step;
//   - admission control — a bounded queue with load shedding
//     (ErrOverloaded → HTTP 429), per-request deadlines as context
//     timeouts, and a degraded mode that returns partial ranks with
//     converged=false when a deadline expires mid-run;
//   - crash tolerance — jobs checkpoint into an atomically-written
//     spool (internal/atomicio) and warm-restart bit-for-bit after a
//     kill -9; worker panics trigger bounded retries with jittered
//     backoff; SIGTERM drains in-flight work under a hard deadline;
//   - operability — /healthz, /varz counters, and a structured
//     request log.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ihtl/internal/analytics"
	"ihtl/internal/core"
	"ihtl/internal/graph"
	"ihtl/internal/sched"
	"ihtl/internal/spmv"
)

// ErrOverloaded is returned (and mapped to HTTP 429) when the pending
// queue is full or the server is draining: the caller should back off
// and retry.
var ErrOverloaded = errors.New("serve: overloaded, retry later")

// errDraining fails requests still queued when shutdown starts.
var errDraining = errors.New("serve: shutting down")

// Config configures a Server. Zero values select the documented
// defaults.
type Config struct {
	// EnginePath is the serialised engine graph (ihtlconvert output,
	// any version; v2/v3 files are memory-mapped).
	EnginePath string
	// SpoolDir holds the checkpoint spool. Created if missing.
	SpoolDir string
	// Workers is the pool width of every engine the daemon builds.
	// The bit-for-bit replay and warm-restart contracts are pinned to
	// this width. Default 4.
	Workers int
	// Lanes is K, the maximum queries coalesced into one batch.
	// Default 4.
	Lanes int
	// FillWindow bounds how long a batch waits for more queries after
	// its first: the latency cost of coalescing. Default 2ms.
	FillWindow time.Duration
	// Slots is the number of batches that may run concurrently, each
	// on its own pool+engine pair. Default 1.
	Slots int
	// QueueLimit bounds the pending-query queue; beyond it requests
	// are shed with ErrOverloaded. Default 64.
	QueueLimit int
	// DefaultTimeout is the per-request deadline applied when the
	// query does not carry one. Default 2s.
	DefaultTimeout time.Duration
	// Query is the iteration policy shared by all coalesced queries
	// (lanes of one batch share damping and tolerance by
	// construction).
	Query JobOptions
	// CheckpointEvery is the job snapshot cadence in iterations
	// (spool write + in-memory rollback target). Default 4.
	CheckpointEvery int
	// JobRetries bounds how many times a faulted job attempt is
	// restarted from its latest checkpoint. Default 2.
	JobRetries int
	// JobIterDelay throttles jobs by sleeping this long at every
	// checkpoint. Zero disables. Meant for chaos/e2e harnesses that
	// need a kill window, and for operators rate-limiting background
	// jobs against query traffic.
	JobIterDelay time.Duration
	// Logger receives the structured request log; nil discards it.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = 4
	}
	if c.Lanes == 0 {
		c.Lanes = 4
	}
	if c.FillWindow == 0 {
		c.FillWindow = 2 * time.Millisecond
	}
	if c.Slots == 0 {
		c.Slots = 1
	}
	if c.QueueLimit == 0 {
		c.QueueLimit = 64
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 2 * time.Second
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 4
	}
	if c.JobRetries == 0 {
		c.JobRetries = 2
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(nullWriter{}, nil))
	}
	return c
}

type nullWriter struct{}

func (nullWriter) Write(p []byte) (int, error) { return len(p), nil }

// slot is one unit of batch concurrency: a dedicated pool + engine
// pair, because an engine's step state is exclusive to one dispatch
// at a time, and the arrays its batches iterate on, kept from batch to
// batch.
type slot struct {
	pool *sched.Pool
	eng  spmv.Stepper
	ws   analytics.PPRWorkspace
}

// Server is the daemon state. Create with New, serve Handler(), stop
// with Drain then Close.
type Server struct {
	cfg Config
	log *slog.Logger

	ef           *core.EngineFile
	n            int
	newID, oldID []graph.VID
	outDeg       []int

	m     *metrics
	reqCh chan *pprReq
	slots chan *slot

	jobMu sync.Mutex
	jobs  map[string]*job
	seq   atomic.Int64

	baseCtx    context.Context
	hardCancel context.CancelFunc
	done       chan struct{}
	drainOnce  sync.Once
	draining   atomic.Bool
	wg         sync.WaitGroup
}

// New opens the engine file, replays the checkpoint spool (resuming
// interrupted jobs), and starts the coalescing dispatcher.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	ef, err := core.OpenEngineFile(cfg.EnginePath)
	if err != nil {
		return nil, fmt.Errorf("serve: opening engine: %w", err)
	}
	s := &Server{
		cfg:   cfg,
		log:   cfg.Logger,
		ef:    ef,
		m:     newMetrics(cfg.Lanes),
		reqCh: make(chan *pprReq, cfg.QueueLimit),
		slots: make(chan *slot, cfg.Slots),
		jobs:  make(map[string]*job),
		done:  make(chan struct{}),
	}
	s.baseCtx, s.hardCancel = context.WithCancel(context.Background())
	ih := ef.IHTL()
	s.n, s.newID, s.oldID, s.outDeg = ih.NumV, ih.NewID, ih.OldID, ih.OutDegrees()
	for i := 0; i < cfg.Slots; i++ {
		sl, err := s.newSlot()
		if err != nil {
			s.closeSlots()
			ef.Close()
			return nil, err
		}
		s.slots <- sl
	}
	if cfg.SpoolDir != "" {
		if err := os.MkdirAll(cfg.SpoolDir, 0o755); err != nil {
			s.closeSlots()
			ef.Close()
			return nil, fmt.Errorf("serve: spool dir: %w", err)
		}
		if err := s.replaySpool(); err != nil {
			s.closeSlots()
			ef.Close()
			return nil, err
		}
	}
	s.wg.Add(1)
	go s.dispatcher()
	return s, nil
}

// newSlot builds one pool + engine pair. Engines are
// rollback-capable (spmv.HealthRollback): a numeric fault mid-batch
// restores the drivers' in-memory snapshot instead of failing the
// queries riding it.
func (s *Server) newSlot() (*slot, error) {
	pool := sched.NewPool(s.cfg.Workers)
	eng, err := s.newEngine(pool)
	if err != nil {
		pool.Close()
		return nil, err
	}
	return &slot{pool: pool, eng: eng}, nil
}

func (s *Server) newEngine(pool *sched.Pool) (spmv.Stepper, error) {
	return core.NewEngineOpts(s.ef.IHTL(), pool, core.EngineOptions{
		Health: spmv.HealthPolicy{Mode: spmv.HealthRollback},
	})
}

func (s *Server) closeSlots() {
	for {
		select {
		case sl := <-s.slots:
			sl.pool.Close()
		default:
			return
		}
	}
}

// Drain stops admitting work and waits for in-flight batches and jobs
// to reach a safe point: batches finish their queries, jobs persist
// their latest checkpoint and park (they resume on the next start).
// When ctx expires first, the hard stop cancels everything in flight
// mid-iteration and returns ctx.Err().
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.drainOnce.Do(func() { close(s.done) })
	s.jobMu.Lock()
	for _, j := range s.jobs {
		if j.softCancel != nil {
			j.softCancel()
		}
	}
	s.jobMu.Unlock()
	settled := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(settled)
	}()
	select {
	case <-settled:
		return nil
	case <-ctx.Done():
		s.hardCancel()
		<-settled
		return ctx.Err()
	}
}

// Close releases the slots and the engine mapping. Call after Drain.
func (s *Server) Close() error {
	s.hardCancel()
	s.closeSlots()
	return s.ef.Close()
}

// Metrics returns a point-in-time counter snapshot (the /varz body).
func (s *Server) Metrics() Varz { return s.m.snapshot() }

// NumVertices returns the served graph's vertex count (original ID
// space).
func (s *Server) NumVertices() int { return s.n }

// toEngine maps an original vertex ID into the engine's relabeled
// space; toOriginal scatters an engine-space vector back.
func (s *Server) toEngine(v uint32) int { return int(s.newID[v]) }

func (s *Server) toOriginal(ranks []float64) []float64 {
	out := make([]float64, len(ranks))
	for nv, r := range ranks {
		out[s.oldID[nv]] = r
	}
	return out
}

// jitter returns d scaled by a uniform [1, 2) factor, decorrelating
// retry storms across goroutines.
func jitter(d time.Duration) time.Duration {
	return d + time.Duration(rand.Int63n(int64(d))) //nolint:gosec // backoff jitter, not security
}
