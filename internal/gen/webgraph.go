package gen

import (
	"fmt"
	"math"

	"ihtl/internal/graph"
	"ihtl/internal/sched"
	"ihtl/internal/xrand"
)

// WebConfig parameterises the web-graph generator. Web graphs differ
// from social networks in two ways that matter to iHTL (§5.4, Fig. 9):
//
//  1. they have extreme *in*-hubs (popular pages linked from
//     everywhere) but **no** corresponding out-hubs — a page links out
//     to a modest number of URLs — so in-hubs are asymmetric;
//  2. they have strong host-level community structure — most links
//     stay within a host block — giving good initial spatial locality
//     (the crawl order groups pages of one host together), which is
//     why the paper notes "graphs like SK-Domain with high initial
//     locality".
//
// The generator models both: vertices are grouped into contiguous host
// blocks, each vertex emits OutDegree links, a fraction Local of them
// to its own block, and the rest to global targets drawn from a Zipf
// distribution over a small set of hub pages (creating huge in-degrees)
// or uniformly at random.
type WebConfig struct {
	// NumV is the number of pages.
	NumV int
	// MeanOutDegree is the average number of links per page; actual
	// out-degrees are power-law with a *small* cap (web pages do not
	// have millions of out-links).
	MeanOutDegree int
	// MaxOutDegree caps out-degrees; keep small relative to the hub
	// in-degrees to create the asymmetry of Fig. 9.
	MaxOutDegree int
	// HostSize is the mean number of pages per host block.
	HostSize int
	// Local is the fraction of links that stay within the host block.
	Local float64
	// HubFraction is the fraction of vertices acting as global hub
	// targets (e.g. 0.003 — "iHTL creates a single flipped block ...
	// by selecting 0.3% of the vertices as in-hubs" for SK-Domain).
	HubFraction float64
	// HubBias is the fraction of non-local links that go to hubs
	// (the rest are uniform random).
	HubBias float64
	// ZipfExponent shapes the hub popularity distribution (>1).
	ZipfExponent float64
	// LocalZipfExponent concentrates local (intra-host) links onto
	// the first pages of each host, modelling per-host index pages;
	// values > 1 enable it (e.g. 1.3), <= 1 selects uniform local
	// targets. Real hosts are strongly front-loaded, which is what
	// lets a single flipped block capture most of a web graph's
	// edges (paper §4.6: 68% for SK-Domain).
	LocalZipfExponent float64
	// Seed selects the deterministic random stream.
	Seed uint64
	// Pool parallelises the CSR/CSC build of the generated edge list
	// (edge generation itself is a sequential random stream). Nil is
	// one worker; the result is identical for every pool.
	Pool *sched.Pool
}

// DefaultWeb returns a web-like configuration for n pages.
func DefaultWeb(n int, seed uint64) WebConfig {
	return WebConfig{
		NumV:              n,
		MeanOutDegree:     20,
		MaxOutDegree:      300,
		HostSize:          64,
		Local:             0.72,
		HubFraction:       0.004,
		HubBias:           0.85,
		ZipfExponent:      1.6,
		LocalZipfExponent: 1.4,
		Seed:              seed,
	}
}

// Validate checks config sanity.
func (c WebConfig) Validate() error {
	if c.NumV < 2 {
		return fmt.Errorf("gen: web NumV %d < 2", c.NumV)
	}
	if c.MeanOutDegree < 1 || c.MaxOutDegree < c.MeanOutDegree {
		return fmt.Errorf("gen: web out-degree config invalid (mean=%d max=%d)", c.MeanOutDegree, c.MaxOutDegree)
	}
	if c.HostSize < 1 {
		return fmt.Errorf("gen: web HostSize %d < 1", c.HostSize)
	}
	if c.Local < 0 || c.Local > 1 || c.HubBias < 0 || c.HubBias > 1 {
		return fmt.Errorf("gen: web fractions out of [0,1]")
	}
	if c.HubFraction <= 0 || c.HubFraction > 0.5 {
		return fmt.Errorf("gen: web HubFraction %v out of (0,0.5]", c.HubFraction)
	}
	if c.ZipfExponent <= 1 {
		return fmt.Errorf("gen: web ZipfExponent %v must be > 1", c.ZipfExponent)
	}
	return nil
}

// Web generates a web-like graph per cfg.
func Web(cfg WebConfig) (*graph.Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := xrand.New(cfg.Seed)
	n := cfg.NumV

	// Hub pages: spread through the ID space the way popular pages
	// are spread through a crawl, chosen deterministically.
	numHubs := int(math.Max(1, cfg.HubFraction*float64(n)))
	hubs := make([]graph.VID, numHubs)
	hubPerm := rng.Perm(n)
	for i := 0; i < numHubs; i++ {
		hubs[i] = graph.VID(hubPerm[i])
	}
	zipf := xrand.NewZipf(rng, cfg.ZipfExponent, 1, uint64(numHubs))

	// Power-law out-degrees with small cap: alpha chosen so the mean
	// is close to MeanOutDegree.
	var localZipf *xrand.Zipf
	if cfg.LocalZipfExponent > 1 && cfg.HostSize > 1 {
		localZipf = xrand.NewZipf(rng, cfg.LocalZipfExponent, 1, uint64(cfg.HostSize))
	}
	outDeg := xrand.PowerLawDegrees(rng, n, 2.2, 1, cfg.MaxOutDegree)
	// Rescale to the requested mean.
	var sum int
	for _, d := range outDeg {
		sum += d
	}
	scale := float64(cfg.MeanOutDegree) * float64(n) / float64(sum)
	edges := make([]graph.Edge, 0, int(float64(n)*float64(cfg.MeanOutDegree)))
	for v := 0; v < n; v++ {
		d := int(float64(outDeg[v])*scale + 0.5)
		if d < 1 {
			d = 1
		}
		if d > cfg.MaxOutDegree {
			d = cfg.MaxOutDegree
		}
		blockStart := (v / cfg.HostSize) * cfg.HostSize
		blockEnd := blockStart + cfg.HostSize
		if blockEnd > n {
			blockEnd = n
		}
		for i := 0; i < d; i++ {
			var dst int
			switch {
			case rng.Float64() < cfg.Local && blockEnd-blockStart > 1:
				if localZipf != nil {
					dst = blockStart + int(localZipf.Uint64())%(blockEnd-blockStart)
				} else {
					dst = blockStart + rng.Intn(blockEnd-blockStart)
				}
			case rng.Float64() < cfg.HubBias:
				dst = int(hubs[zipf.Uint64()])
			default:
				dst = rng.Intn(n)
			}
			if dst != v {
				edges = append(edges, graph.Edge{Src: graph.VID(v), Dst: graph.VID(dst)})
			}
		}
	}
	return graph.Build(n, edges, graph.BuildOptions{
		Dedup:            true,
		DropSelfLoops:    true,
		RemoveZeroDegree: true,
		Pool:             cfg.Pool,
	})
}
