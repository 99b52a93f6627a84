// Package bench is the experiment harness: it holds the synthetic
// dataset registry standing in for the paper's Table 1 graphs and one
// driver per table/figure of the evaluation section (§4), each
// printing rows in the paper's format. cmd/ihtlbench is the CLI
// front-end; the repository-root benchmarks wrap the same drivers in
// testing.B.
package bench

import (
	"fmt"
	"sync"

	"ihtl/internal/gen"
	"ihtl/internal/graph"
)

// Dataset is a lazily generated synthetic stand-in for one of the
// paper's Table 1 graphs, scaled down ~1000x (see DESIGN.md §2 for
// why real datasets cannot be shipped and what the generators
// preserve).
type Dataset struct {
	// Name is the paper's short dataset name (Table 1).
	Name string
	// Kind is "social" (R-MAT, near-symmetric hubs) or "web"
	// (asymmetric in-hubs with host structure).
	Kind string
	// Analog describes the paper graph this imitates.
	Analog string
	// load generates the graph.
	load func() (*graph.Graph, error)

	once sync.Once
	g    *graph.Graph
	err  error
}

// Load generates (once) and returns the graph.
func (d *Dataset) Load() (*graph.Graph, error) {
	d.once.Do(func() { d.g, d.err = d.load() })
	return d.g, d.err
}

func rmatDS(name, analog string, scale, ef int, seed uint64) *Dataset {
	return &Dataset{
		Name: name, Kind: "social", Analog: analog,
		load: func() (*graph.Graph, error) {
			cfg := gen.DefaultRMAT(scale, ef, seed)
			// Social networks have highly reciprocal hubs (Fig 9).
			cfg.Reciprocity = 0.7
			return gen.RMAT(cfg)
		},
	}
}

func webDS(name, analog string, numV, meanOut int, seed uint64) *Dataset {
	return &Dataset{
		Name: name, Kind: "web", Analog: analog,
		load: func() (*graph.Graph, error) {
			cfg := gen.DefaultWeb(numV, seed)
			cfg.MeanOutDegree = meanOut
			return gen.Web(cfg)
		},
	}
}

// Registry returns the ten Table 1 analogues. Vertex/edge counts are
// ~1000x below the paper's (e.g. twtrmpi: 41M vertices/1.5B edges in
// the paper, ~40K/1.5M here); clwb9 is scaled ~4000x to keep the
// harness runnable in minutes.
func Registry() []*Dataset {
	return []*Dataset{
		rmatDS("lvjrnl", "LiveJournal (7M/0.22B)", 13, 27, 101),
		rmatDS("twtr10", "Twitter 2010 (21M/0.26B)", 15, 8, 102),
		rmatDS("twtrmpi", "Twitter MPI (41M/1.5B)", 16, 23, 103),
		rmatDS("frndstr", "Friendster (65M/1.8B)", 17, 14, 104),
		webDS("sk", "SK-Domain (50M/2B)", 50_000, 40, 105),
		webDS("wbcc", "Web-CC12 (89M/2B)", 89_000, 22, 106),
		webDS("ukdls", "UK-Delis (110M/4B)", 110_000, 36, 107),
		webDS("uu", "UK-Union (133M/5.5B)", 133_000, 41, 108),
		webDS("ukdmn", "UK-Domain (105M/6.6B)", 105_000, 63, 109),
		webDS("clwb9", "ClueWeb09 (1.7B/7.9B)", 425_000, 5, 110),
	}
}

// SmallRegistry returns reduced-size counterparts used by unit tests
// and quick benchmark runs.
func SmallRegistry() []*Dataset {
	return []*Dataset{
		rmatDS("lvjrnl-s", "LiveJournal (small)", 11, 12, 201),
		rmatDS("twtrmpi-s", "Twitter MPI (small)", 12, 12, 202),
		webDS("sk-s", "SK-Domain (small)", 12_000, 20, 203),
		webDS("uu-s", "UK-Union (small)", 16_000, 24, 204),
	}
}

// ByName finds a dataset in the given registry.
func ByName(reg []*Dataset, name string) (*Dataset, error) {
	for _, d := range reg {
		if d.Name == name {
			return d, nil
		}
	}
	return nil, fmt.Errorf("bench: unknown dataset %q", name)
}
