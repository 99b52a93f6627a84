// Command ihtlconvert converts between the repository's graph
// formats and pre-builds iHTL binaries, completing the paper's
// amortisation story ("the preprocessing overhead can be completely
// amortized ... if the iHTL graph is stored in its binary format on
// disk", §4.2).
//
// Usage:
//
//	ihtlconvert -i snap.txt -from edgelist -o graph.bin
//	ihtlconvert -i graph.bin -to compressed -o graph.cbin
//	ihtlconvert -i graph.bin -to ihtl -o graph.ihtl -hubs-per-block 4096
//	ihtlconvert -i graph.bin -to ihtlv2 -o graph.ihtl2
//	ihtlconvert -i graph.ihtl -from ihtl -to ihtlv2 -o graph.ihtl2
//	ihtlconvert -i graph.bin -to edgelist -o graph.txt
//
// -from ihtl reads a serialised engine file of either version, so old
// v1 binaries upgrade to the mmap-friendly v2 layout in one pass. A v2
// file's adjacency stream is raw for a graph built resident (no flipped
// block: all vertex data fits the cache B is sized from) and packed gap
// rows for every other; the writer picks, and both lines below say which.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ihtl/internal/atomicio"
	"ihtl/internal/core"
	"ihtl/internal/graph"
)

func main() {
	var (
		in   = flag.String("i", "", "input path")
		out  = flag.String("o", "", "output path")
		from = flag.String("from", "auto", "input format: auto | edgelist | ihtl")
		to   = flag.String("to", "flat", "output format: flat | compressed | edgelist | ihtl | ihtlv2")
		hpb  = flag.Int("hubs-per-block", 0, "iHTL hubs per flipped block (0 = cache size / vertex size, and no flipped block when all vertex data fits that cache)")
	)
	flag.Parse()
	if *in == "" || *out == "" {
		fatal(fmt.Errorf("need -i and -o"))
	}

	var g *graph.Graph
	var ih *core.IHTL
	var err error
	switch *from {
	case "auto":
		g, err = graph.LoadFileAuto(*in)
	case "edgelist":
		f, ferr := os.Open(*in)
		if ferr != nil {
			fatal(ferr)
		}
		g, _, err = graph.ReadEdgeList(f)
		f.Close()
	case "ihtl":
		ih, err = core.LoadFile(*in)
	default:
		err = fmt.Errorf("unknown input format %q", *from)
	}
	if err != nil {
		fatal(err)
	}
	if ih != nil {
		fmt.Printf("loaded %s: iHTL graph, %d vertices, %d edges, %d blocks, %s v2 stream\n", *in, ih.NumV, ih.NumE, len(ih.Blocks), ih.V2Stream())
		if *to != "ihtl" && *to != "ihtlv2" {
			fatal(fmt.Errorf("-from ihtl supports only -to ihtl or -to ihtlv2, not %q", *to))
		}
	} else {
		fmt.Printf("loaded %s: %d vertices, %d edges\n", *in, g.NumV, g.NumE)
	}
	buildIHTL := func() *core.IHTL {
		if ih != nil {
			return ih
		}
		start := time.Now()
		built, berr := core.Build(g, core.Params{HubsPerBlock: *hpb})
		if berr != nil {
			fatal(berr)
		}
		ms := time.Since(start).Seconds() * 1000
		if s := built.Stats(g); s.Resident {
			fmt.Printf("built iHTL graph in %.1f ms: resident: vertex data %d KB ≤ cache %d KB — no flipped blocks\n",
				ms, s.VertexDataBytes>>10, s.CacheBytes>>10)
		} else {
			fmt.Printf("built iHTL graph in %.1f ms: %d blocks, %d hubs, %.1f%% flipped edges\n",
				ms, s.NumBlocks, s.NumHubs, 100*s.FlippedEdgeFrac)
		}
		return built
	}

	var v2Stream string
	switch *to {
	case "flat":
		err = g.SaveFile(*out)
	case "compressed":
		err = g.SaveFileCompressed(*out)
	case "edgelist":
		err = atomicio.WriteFile(*out, g.WriteEdgeList)
	case "ihtl":
		err = buildIHTL().SaveFile(*out)
	case "ihtlv2":
		b := buildIHTL()
		v2Stream = ", " + b.V2Stream() + " adjacency stream"
		err = b.SaveFileV2(*out)
	default:
		err = fmt.Errorf("unknown output format %q", *to)
	}
	if err != nil {
		fatal(err)
	}
	info, err := os.Stat(*out)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%.2f MiB%s)\n", *out, float64(info.Size())/(1<<20), v2Stream)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ihtlconvert:", err)
	os.Exit(1)
}
