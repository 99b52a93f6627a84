package bench

import (
	"io"
	"time"

	"ihtl/internal/cache"
	"ihtl/internal/core"
	"ihtl/internal/sched"
	"ihtl/internal/spmv"
)

// Env bundles the shared resources and scale parameters of an
// experiment run.
type Env struct {
	// Pool is the worker pool all engines share.
	Pool *sched.Pool
	// CacheCfg is the simulated hierarchy for the cache experiments.
	// The default scales the paper's Xeon geometry down ~32x to match
	// the ~1000x smaller graphs (so the cache:data ratio is similar).
	CacheCfg cache.Config
	// HubsPerBlock is the iHTL B used for the wall-clock experiments;
	// derived from the scaled L2 like §3.3 derives it from the real
	// one.
	HubsPerBlock int
	// Iters is the number of timed SpMV iterations per measurement.
	Iters int
	// Out receives the rendered tables; nil discards.
	Out io.Writer
	// CSV selects comma-separated output instead of aligned text.
	CSV bool
}

// render writes a table in the env's chosen format.
func (e *Env) render(t *Table) {
	if e.CSV {
		RenderCSV(t, e.Out)
		return
	}
	t.Render(e.Out)
}

// NewEnv creates an Env with the default scaled geometry on a fresh
// pool of the given size (0 = GOMAXPROCS). Close it when done.
//
// The geometry (4 KB L1 / 16 KB L2 / 512 KB L3) is the paper's Xeon
// divided ~64x, chosen so the full registry's 50K-425K-vertex graphs
// stand in the paper's regime: vertex data several times the LLC, and
// B = L2/8 = 2048 hubs per flipped block selecting the top ~0.5-4% of
// vertices (the paper's B = 1MiB/8 = 131072 over 7M-1.7B vertices).
func NewEnv(workers int) *Env {
	cfg := cache.Config{
		LineSize: 64,
		Levels: []cache.LevelConfig{
			{SizeBytes: 4 << 10, Ways: 8},
			{SizeBytes: 16 << 10, Ways: 16},
			{SizeBytes: 512 << 10, Ways: 8},
		},
		// Sequential topology streams are prefetch-covered, as on the
		// paper's hardware (§4.3: "sequential, i.e., assisted by
		// prefetching"); demand misses then reflect the random
		// vertex-data accesses the paper analyses.
		ModelPrefetch: true,
	}
	return &Env{
		Pool:         sched.NewPool(workers),
		CacheCfg:     cfg,
		HubsPerBlock: cfg.Levels[1].SizeBytes / spmv.VertexBytes,
		Iters:        8,
	}
}

// Close releases the pool.
func (e *Env) Close() { e.Pool.Close() }

// ihtlParams returns the iHTL build parameters for this env.
func (e *Env) ihtlParams() core.Params {
	return core.Params{HubsPerBlock: e.HubsPerBlock}
}

// timeIt returns the average duration of one call to fn over n calls
// after one warmup call.
func timeIt(n int, fn func()) time.Duration {
	fn()
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return time.Since(start) / time.Duration(n)
}

// stepTime measures the average per-iteration time of an SpMV engine
// using PageRank-like data.
func stepTime(e spmv.Stepper, iters int) time.Duration {
	n := e.NumVertices()
	src := make([]float64, n)
	dst := make([]float64, n)
	for i := range src {
		src[i] = 1 / float64(n+1)
	}
	return timeIt(iters, func() {
		e.Step(src, dst)
		src, dst = dst, src
	})
}
