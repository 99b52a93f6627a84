// Package gen synthesises the graph datasets used by the experiments.
//
// The paper evaluates on ten real-world graphs (Table 1): four social
// networks (LiveJournal, two Twitter crawls, Friendster) and six web
// graphs (SK-Domain, Web-CC12, UK-Delis, UK-Union, UK-Domain,
// ClueWeb09), none of which can be shipped with this repository. This
// package provides deterministic generators whose outputs reproduce
// the two structural properties that drive iHTL's behaviour:
//
//   - a skewed, heavy-tailed in-degree distribution (in-hubs capture a
//     disproportionate fraction of edges) — R-MAT for social networks;
//   - in-hub/out-hub asymmetry (web graphs have huge in-hubs but small
//     out-degrees, Figure 9) — WebGraph for web-like datasets.
package gen

import (
	"fmt"

	"ihtl/internal/graph"
	"ihtl/internal/sched"
	"ihtl/internal/xrand"
)

// RMATConfig parameterises the Recursive MATrix (Kronecker) generator
// of Chakrabarti, Zhan & Faloutsos (SDM 2004). The Graph500 parameters
// (A=0.57, B=0.19, C=0.19) produce social-network-like graphs with
// power-law in- and out-degrees and near-symmetric hubs.
type RMATConfig struct {
	// Scale is log2 of the number of vertices.
	Scale int
	// EdgeFactor is the number of directed edges per vertex.
	EdgeFactor int
	// A, B, C are the Kronecker quadrant probabilities; D = 1-A-B-C.
	A, B, C float64
	// Noise perturbs the quadrant probabilities per recursion level
	// to avoid the staircase artefacts of pure R-MAT. 0.1 is typical.
	Noise float64
	// Reciprocity is the probability that each generated edge also
	// adds its reverse. Social networks have highly reciprocal hubs
	// (paper Figure 9: "in-hubs are almost symmetric in social
	// networks"); 0 leaves the graph fully directed.
	Reciprocity float64
	// Seed selects the deterministic random stream.
	Seed uint64
	// Pool parallelises the CSR/CSC build of the generated edge list
	// (edge generation itself is a sequential random stream). Nil is
	// one worker; the result is identical for every pool.
	Pool *sched.Pool
}

// DefaultRMAT returns the Graph500 social-network configuration at the
// given scale.
func DefaultRMAT(scale, edgeFactor int, seed uint64) RMATConfig {
	return RMATConfig{
		Scale: scale, EdgeFactor: edgeFactor,
		A: 0.57, B: 0.19, C: 0.19,
		Noise: 0.1, Seed: seed,
	}
}

// Validate checks config sanity.
func (c RMATConfig) Validate() error {
	if c.Scale < 1 || c.Scale > 30 {
		return fmt.Errorf("gen: RMAT scale %d out of [1,30]", c.Scale)
	}
	if c.EdgeFactor < 1 {
		return fmt.Errorf("gen: RMAT edge factor %d < 1", c.EdgeFactor)
	}
	if c.A <= 0 || c.B < 0 || c.C < 0 || c.A+c.B+c.C >= 1 {
		return fmt.Errorf("gen: RMAT probabilities invalid (A=%v B=%v C=%v)", c.A, c.B, c.C)
	}
	if c.Noise < 0 || c.Noise > 0.5 {
		return fmt.Errorf("gen: RMAT noise %v out of [0,0.5]", c.Noise)
	}
	if c.Reciprocity < 0 || c.Reciprocity > 1 {
		return fmt.Errorf("gen: RMAT reciprocity %v out of [0,1]", c.Reciprocity)
	}
	return nil
}

// RMAT generates an R-MAT graph. Duplicate edges and self-loops are
// removed, as are zero-degree vertices (mirroring the paper's dataset
// preparation), so the returned vertex and edge counts are slightly
// below 2^Scale and 2^Scale*EdgeFactor.
func RMAT(cfg RMATConfig) (*graph.Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := 1 << uint(cfg.Scale)
	m := n * cfg.EdgeFactor
	rng := xrand.New(cfg.Seed)
	edges := make([]graph.Edge, 0, m)
	// Per-level noise factors, fixed per generation for determinism.
	noiseA := make([]float64, cfg.Scale)
	noiseB := make([]float64, cfg.Scale)
	noiseC := make([]float64, cfg.Scale)
	for l := 0; l < cfg.Scale; l++ {
		noiseA[l] = 1 + cfg.Noise*(2*rng.Float64()-1)
		noiseB[l] = 1 + cfg.Noise*(2*rng.Float64()-1)
		noiseC[l] = 1 + cfg.Noise*(2*rng.Float64()-1)
	}
	for i := 0; i < m; i++ {
		src, dst := 0, 0
		for l := 0; l < cfg.Scale; l++ {
			a := cfg.A * noiseA[l]
			b := cfg.B * noiseB[l]
			c := cfg.C * noiseC[l]
			sum := a + b + c + (1 - cfg.A - cfg.B - cfg.C)
			r := rng.Float64() * sum
			half := 1 << uint(cfg.Scale-1-l)
			switch {
			case r < a:
				// top-left: no bit set
			case r < a+b:
				dst += half
			case r < a+b+c:
				src += half
			default:
				src += half
				dst += half
			}
		}
		if src != dst {
			edges = append(edges, graph.Edge{Src: graph.VID(src), Dst: graph.VID(dst)})
			if cfg.Reciprocity > 0 && rng.Float64() < cfg.Reciprocity {
				edges = append(edges, graph.Edge{Src: graph.VID(dst), Dst: graph.VID(src)})
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
