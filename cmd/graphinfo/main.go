// Command graphinfo prints the structural report of a graph file:
// degree summaries, skew, asymmetricity by degree (paper Figure 9),
// and the iHTL structure it would produce (paper Table 5's "Graph
// Statistics" columns).
//
// Usage:
//
//	graphinfo -i graph.bin
//	graphinfo -i graph.bin -hubs-per-block 4096
package main

import (
	"flag"
	"fmt"
	"os"

	"ihtl/internal/core"
	"ihtl/internal/graph"
	"ihtl/internal/stats"
	"ihtl/internal/trace"
)

func main() {
	var (
		in    = flag.String("i", "", "input graph file")
		hpb   = flag.Int("hubs-per-block", 0, "iHTL hubs per flipped block (0 = cache size / vertex size, and no flipped block when all vertex data fits that cache)")
		reuse = flag.Bool("reuse", false, "also print reuse-distance locality comparison (pull vs iHTL)")
	)
	flag.Parse()
	if *in == "" {
		fatal(fmt.Errorf("missing -i"))
	}
	g, err := graph.LoadFileAuto(*in)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s: %d vertices, %d edges\n\n", *in, g.NumV, g.NumE)

	for _, kind := range []stats.DegreeKind{stats.InDegree, stats.OutDegree} {
		s := stats.Summarize(g, kind)
		fmt.Printf("%s-degree: min %d, median %d, mean %.2f, p99 %d, max %d\n",
			kind, s.Min, s.Median, s.Mean, s.P99, s.Max)
		fmt.Printf("  skew: Gini %.3f, top 1%% of vertices hold %.1f%% of edges\n",
			s.Gini, 100*s.TopSharePct1)
	}

	fmt.Printf("\nasymmetricity by in-degree (Figure 9):\n")
	for _, b := range stats.AsymmetryByDegree(g) {
		fmt.Printf("  [%6d,%6d): %8d vertices, mean %.3f\n",
			b.DegreeLo, b.DegreeHi, b.Count, b.MeanAsymmetricity)
	}
	fmt.Printf("  top-100 hub mean: %.3f (social ≈ 0, web ≈ 1)\n", stats.HubAsymmetricity(g, 100))

	ih, err := core.Build(g, core.Params{HubsPerBlock: *hpb})
	if err != nil {
		fatal(err)
	}
	s := ih.Stats(g)
	fmt.Printf("\niHTL structure (B = %d):\n", ih.HubsPerBlock)
	if s.Resident {
		fmt.Printf("  resident: vertex data %d KB ≤ cache %d KB — no flipped blocks\n",
			s.VertexDataBytes>>10, s.CacheBytes>>10)
	} else {
		fmt.Printf("  flipped blocks:  %d\n", s.NumBlocks)
		fmt.Printf("  hubs:            %d (%.2f%% of vertices)\n", s.NumHubs, 100*s.HubFrac)
		fmt.Printf("  VWEH:            %.1f%% of vertices\n", 100*s.VWEHFrac)
		fmt.Printf("  min hub degree:  %d\n", s.MinHubDegree)
		fmt.Printf("  flipped edges:   %.1f%% of edges\n", 100*s.FlippedEdgeFrac)
	}
	fmt.Printf("  topology:        %.2f MiB vs %.2f MiB CSC (%.1f%% overhead)\n",
		float64(s.TopologyBytes)/(1<<20), float64(s.CSCBytes)/(1<<20), 100*s.OverheadFrac)
	fmt.Printf("  v2 engine file:  %s adjacency stream\n", ih.V2Stream())

	printLayouts(os.Stdout, ih.BlockShapes())
	printCompression(os.Stdout, ih)

	if *reuse {
		const vertexBytes, lineBytes = 8, 64
		pull := trace.ReuseDistances(trace.PullRandomStream(g, vertexBytes, lineBytes))
		ihtl := trace.ReuseDistances(trace.IHTLRandomStream(ih, vertexBytes, lineBytes))
		fmt.Printf("\nreuse-distance of random accesses (lines of %dB):\n", lineBytes)
		fmt.Printf("  median finite distance: pull %d, iHTL %d\n",
			trace.MedianFinite(pull), trace.MedianFinite(ihtl))
		for _, capKB := range []int64{16, 64, 256, 1024} {
			lines := capKB << 10 / lineBytes
			fmt.Printf("  LRU hit ratio @ %4d KB: pull %.3f, iHTL %.3f\n",
				capKB, trace.HitRatioAt(pull, lines), trace.HitRatioAt(ihtl, lines))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "graphinfo:", err)
	os.Exit(1)
}
