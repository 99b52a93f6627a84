package main

import (
	"fmt"
	"time"

	"ihtl"
	"ihtl/internal/gen"
)

// workload is one input regime. The reasons each exists are recorded
// next to its name in BENCHMARK.json and at length in README.md.
type workload struct {
	name string
	// input returns the cache key and generator of the edge list for a
	// seed; smoke selects the tiny inputs `go test` runs on.
	input func(seed uint64, smoke bool) (key string, generate func(pool *ihtl.Pool) (edgeList, error))
	// serve marks the workload that drives the daemon with open-loop
	// traffic instead of running the library ladder.
	serve bool
}

func rmatInput(scale, smokeScale int) func(uint64, bool) (string, func(*ihtl.Pool) (edgeList, error)) {
	return func(seed uint64, smoke bool) (string, func(*ihtl.Pool) (edgeList, error)) {
		s := scale
		if smoke {
			s = smokeScale
		}
		cfg := gen.DefaultRMAT(s, 16, seed)
		key := fmt.Sprintf("rmat v%d scale=%d ef=%d a=%g b=%g c=%g noise=%g chunk=%d seed=%d",
			cacheVersion, cfg.Scale, cfg.EdgeFactor, cfg.A, cfg.B, cfg.C, cfg.Noise, rmatChunk, seed)
		return key, func(pool *ihtl.Pool) (edgeList, error) { return rmatEdges(cfg, pool) }
	}
}

func webInput(pages, smokePages, meanOutDegree int) func(uint64, bool) (string, func(*ihtl.Pool) (edgeList, error)) {
	return func(seed uint64, smoke bool) (string, func(*ihtl.Pool) (edgeList, error)) {
		n := pages
		if smoke {
			n = smokePages
		}
		cfg := gen.DefaultWeb(n, seed)
		cfg.MeanOutDegree = meanOutDegree
		key := fmt.Sprintf("web v%d n=%d deg=%d/%d host=%d local=%g hubs=%g bias=%g zipf=%g/%g chunk=%d seed=%d",
			cacheVersion, cfg.NumV, cfg.MeanOutDegree, cfg.MaxOutDegree, cfg.HostSize, cfg.Local,
			cfg.HubFraction, cfg.HubBias, cfg.ZipfExponent, cfg.LocalZipfExponent, webChunk, seed)
		return key, func(pool *ihtl.Pool) (edgeList, error) { return webEdges(cfg, pool) }
	}
}

var workloads = []workload{
	{name: "social-flipped", input: rmatInput(20, 10)},
	{name: "web-sparse", input: webInput(1_500_000, 4000, 6)},
	{name: "small-resident", input: rmatInput(14, 10)},
	{name: "serve-openloop", input: rmatInput(14, 10), serve: true},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// plan is how much of everything one pass does. The measuring phase
// is sized by --seconds; the counts are floors under it, so a short
// run still has enough samples behind each median.
type plan struct {
	minSetups   int // set-ups timed: at least this many, then up to
	maxSetups   int // maxSetups while they fit setupBudget seconds
	setupBudget float64
	serveOpens  int           // serve.New calls timed on serve-openloop
	stepBlock   time.Duration // target length of one timed block of Steps
	minBlocks   int
	refReading  time.Duration // length of one reading of the reference sweep
	minOps      int           // floor under PageRank and PPR repetitions
	stepShare   float64       // shares of --seconds on the library ladder
	prShare     float64
	pprShare    float64
	layerBlock  time.Duration // per-layer probes: block length and count
	layerBlocks int
	layerBudget float64 // seconds one probe may time
	simMaxEdges int64   // the cache simulator runs only at or below this
}

func newPlan(smoke, traced bool) plan {
	p := plan{
		minSetups: 3, maxSetups: 5, setupBudget: 4, serveOpens: 15,
		stepBlock: 30 * time.Millisecond, minBlocks: 100, minOps: 5, refReading: 10 * time.Millisecond,
		stepShare: 0.15, prShare: 0.27, pprShare: 0.23,
		layerBlock: 30 * time.Millisecond, layerBlocks: 9, layerBudget: 0.5, simMaxEdges: 1 << 20,
	}
	if traced {
		// The traced run spends its time on the per-layer probes; its
		// end-to-end numbers are not the ones reported.
		p.minSetups, p.maxSetups, p.serveOpens, p.minBlocks, p.minOps = 2, 2, 5, 40, 2
		p.stepShare, p.prShare, p.pprShare = 0.06, 0.08, 0.08
	}
	if smoke {
		p.minSetups, p.maxSetups, p.serveOpens, p.minBlocks, p.minOps = 2, 2, 3, 10, 2
		p.stepBlock, p.layerBlock, p.layerBlocks, p.layerBudget = 2*time.Millisecond, time.Millisecond, 3, 0.01
		p.refReading = time.Millisecond
	}
	return p
}

// Open-loop traffic of serve-openloop. Rates are requests per second
// offered, fixed here so every commit is offered the same load; `over`
// is about 1.5× the closed-loop capacity measured at the commit that
// added the benchmark (≈ 135 answers/s with 2 workers, 4 lanes).
type phase struct {
	name  string
	qps   float64
	share float64 // of --seconds
}

var servePhases = []phase{
	{name: "low", qps: 10, share: 0.07},
	{name: "mid", qps: 32, share: 0.70},
	{name: "over", qps: 300, share: 0.08},
}

const (
	serveLimit     = 250 * time.Millisecond // latency limit, from the instant a request was due
	serveIters     = 20                     // Query.MaxIters of the daemon (Tol -1: always 20)
	serveZipf      = 1.5                    // skew of query sources
	serveCoalesced = 32                     // coalesced answers re-checked against solo queries
	lateLimit      = 5 * time.Millisecond   // generator lateness (p95) above this voids the pass
)
