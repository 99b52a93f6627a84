// Command pagerank runs PageRank on a graph file with a selectable
// traversal engine and reports per-iteration timing — the
// single-dataset version of the paper's Figure 7 measurement.
//
// Usage:
//
//	pagerank -i graph.bin -engine ihtl -iters 20
//	pagerank -i graph.bin -engine pull -top 5
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"ihtl/internal/analytics"
	"ihtl/internal/core"
	"ihtl/internal/graph"
	"ihtl/internal/sched"
	"ihtl/internal/spmv"
)

func main() {
	var (
		in      = flag.String("i", "", "input graph file")
		engine  = flag.String("engine", "ihtl", "engine: ihtl | pull | push-atomic | push-buffered | push-partitioned")
		iters   = flag.Int("iters", 20, "PageRank iterations")
		top     = flag.Int("top", 10, "print the top-K ranked vertices")
		workers = flag.Int("workers", 0, "worker count (0 = GOMAXPROCS)")
		hpb     = flag.Int("hubs-per-block", 0, "iHTL hubs per flipped block (0 = cache size / vertex size, and no flipped block when all vertex data fits that cache)")
	)
	flag.Parse()
	if *in == "" {
		fatal(fmt.Errorf("missing -i"))
	}
	g, err := graph.LoadFileAuto(*in)
	if err != nil {
		fatal(err)
	}
	pool := sched.NewPool(*workers)
	defer pool.Close()

	outDeg := make([]int, g.NumV)
	var stepper spmv.Stepper
	var toOld func([]float64) []float64

	prepStart := time.Now()
	switch *engine {
	case "ihtl":
		ih, err := core.Build(g, core.Params{HubsPerBlock: *hpb})
		if err != nil {
			fatal(err)
		}
		e, err := core.NewEngine(ih, pool)
		if err != nil {
			fatal(err)
		}
		for nv := 0; nv < g.NumV; nv++ {
			outDeg[nv] = g.OutDegree(ih.OldID[nv])
		}
		stepper = e
		toOld = func(in []float64) []float64 {
			out := make([]float64, len(in))
			ih.PermuteToOld(in, out)
			return out
		}
	default:
		var dir spmv.Direction
		switch *engine {
		case "pull":
			dir = spmv.Pull
		case "push-atomic":
			dir = spmv.PushAtomic
		case "push-buffered":
			dir = spmv.PushBuffered
		case "push-partitioned":
			dir = spmv.PushPartitioned
		default:
			fatal(fmt.Errorf("unknown engine %q", *engine))
		}
		e, err := spmv.NewEngine(g, pool, dir, spmv.Options{})
		if err != nil {
			fatal(err)
		}
		for v := 0; v < g.NumV; v++ {
			outDeg[v] = g.OutDegree(graph.VID(v))
		}
		stepper = e
		toOld = func(in []float64) []float64 { return in }
	}
	prep := time.Since(prepStart)

	start := time.Now()
	res, err := analytics.RunPageRank(stepper, outDeg, pool, analytics.PageRankOptions{MaxIters: *iters, Tol: -1})
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)

	fmt.Printf("graph: %d vertices, %d edges\n", g.NumV, g.NumE)
	fmt.Printf("engine: %s, preprocessing %.1f ms\n", *engine, prep.Seconds()*1000)
	fmt.Printf("%d iterations in %.1f ms (%.2f ms/iter)\n",
		res.Iters, elapsed.Seconds()*1000, elapsed.Seconds()*1000/float64(res.Iters))

	ranks := toOld(res.Ranks)
	type rv struct {
		v graph.VID
		r float64
	}
	all := make([]rv, len(ranks))
	for v, r := range ranks {
		all[v] = rv{graph.VID(v), r}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].r > all[j].r })
	if *top > len(all) {
		*top = len(all)
	}
	fmt.Printf("top %d:\n", *top)
	for i := 0; i < *top; i++ {
		fmt.Printf("  #%d vertex %d  rank %.3e  (in-degree %d)\n",
			i+1, all[i].v, all[i].r, g.InDegree(all[i].v))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pagerank:", err)
	os.Exit(1)
}
