package core

import (
	"flag"
	"fmt"
	"strings"
	"testing"
	"time"

	"ihtl/internal/gen"
	"ihtl/internal/graph"
	"ihtl/internal/sched"
	"ihtl/internal/spmv"
	"ihtl/internal/xrand"
)

// BenchmarkShortRowKernel times the four flat scalar kernels — CSR and
// edge-major, flipped push and sparse pull — on one thread, called
// directly, every task or part in order, so the number is the inner
// loop's: no dispatch, no merge. Each kernel with a prefetching body runs
// each body: the Go twin ("go") and, in a build with the assembly, the
// assembly prefetching 16, 32, 64 and 128 edges ahead ("asm-d32") —
// both pushes, and the edge-major pull's pair loop. The bodies of one
// kernel alternate within the process (altBench): each row reports its
// median, and each assembly row the quartiles of its per-round time
// over the Go twin's. A graph is generated only when a sub-benchmark of
// its name is selected:
//
//   - web=200k, the web analog at 200 k pages, whose blocks are the
//     short-row shape the edge-major layout exists for (1.6 MB of vertex
//     data). CI's smoke runs this one: -bench 'ShortRowKernel/web=200k'.
//   - web=1.5M, web-sparse's graph, whose vertex data is 6× L2, so the
//     pull's source reads miss.
//   - rmat=20, social-flipped's (R-MAT scale 20, edge factor 16).
//
// The two beyond-L2 graphs also time whole default Steps on two
// workers, "step/pull/<body>" and "step/push/<body>" (that kernel's body
// picked, the other at its default): ns per edge, and the sparse
// phase's busy ns per sparse edge or the flipped phase's per flipped
// edge. DESIGN.md §17 records the tables (the distance sweeps are
// "Prefetching the pull" and "Prefetching the push").
func BenchmarkShortRowKernel(b *testing.B) {
	defer ForceGoTwins(false)
	web := func(pages int) func() (*graph.Graph, error) {
		return func() (*graph.Graph, error) {
			cfg := gen.DefaultWeb(pages, 1002)
			cfg.MeanOutDegree = 6 // the benchmark's web-sparse shape
			return gen.Web(cfg)
		}
	}
	type prefetchBody struct {
		name string
		dist int // pullPrefetch or pushPrefetch: 0 is the Go twin
	}
	bodies := []prefetchBody{{"go", 0}}
	if scalarAsmDist > 0 {
		for _, d := range []int{16, 32, 64, 128} {
			bodies = append(bodies, prefetchBody{fmt.Sprintf("asm-d%d", d), d})
		}
	}
	for _, c := range []struct {
		name  string
		graph func() (*graph.Graph, error)
		steps bool
	}{
		{"web=200k", web(200_000), false},
		{"web=1.5M", web(1_500_000), true},
		{"rmat=20", func() (*graph.Graph, error) { return gen.RMAT(gen.DefaultRMAT(20, 16, 1)) }, true},
	} {
		b.Run(c.name, func(b *testing.B) {
			g, err := c.graph()
			if err != nil {
				b.Fatal(err)
			}
			ih, err := Build(g, Params{}) // the default, as the benchmark builds them: every graph here is past the resident threshold
			if err != nil {
				b.Fatal(err)
			}
			src := make([]float64, ih.NumV)
			for i := range src {
				src[i] = 1 / float64(ih.NumV)
			}
			dst := make([]float64, ih.NumV)
			for _, s := range ih.BlockShapes() {
				b.Logf("%s: %d rows, %d edges, mean row %.2f, %.0f%% empty", s.Name, s.Rows, s.Edges, s.MeanRowLen, 100*s.EmptyRowFrac)
			}
			for _, layout := range []BlockLayout{LayoutCSR, LayoutEdgeMajor} {
				e, err := NewEngineOpts(ih, testPool, EngineOptions{forceLayout: layout})
				if err != nil {
					b.Fatal(err)
				}
				buf := e.batch.bufs[0]
				push := altBench{prefix: "push/" + layout.String() + "/", unit: "ns/edge", div: float64(ih.FlippedEdges())}
				for _, body := range bodies {
					push.arms = append(push.arms, altArm{body.name, func() []time.Duration {
						pushPrefetch = body.dist
						for t := range e.blockTasks {
							e.pushTask(&e.blockTasks[t], src, buf)
						}
						return nil
					}})
				}
				push.run(b)
				clear(buf)
				pull := altBench{prefix: "pull/csr", unit: "ns/edge", div: float64(ih.Sparse.NumEdges())}
				if layout == LayoutEdgeMajor {
					pull.prefix = "pull/edge-major/"
				}
				for _, body := range bodies {
					name := body.name
					if layout == LayoutCSR {
						if body.dist > 0 {
							continue // no pair loop to pick a body for
						}
						name = ""
					}
					pull.arms = append(pull.arms, altArm{name, func() []time.Duration {
						pullPrefetch = body.dist
						for p := 0; p < len(e.sparseBounds)-1; p++ {
							e.sparsePullPart(p, src, dst)
						}
						return nil
					}})
				}
				pull.run(b)
			}
			if !c.steps {
				return
			}
			pool := sched.NewPool(2)
			defer pool.Close()
			e, err := NewEngine(ih, pool)
			if err != nil {
				b.Fatal(err)
			}
			for _, kernel := range []struct {
				name  string
				dist  *int
				edges int64
				busy  func(Breakdown) time.Duration
				unit  string
			}{
				{"pull", &pullPrefetch, ih.Sparse.NumEdges(), func(bd Breakdown) time.Duration { return bd.SparseBusy }, "sparse-ns/edge"},
				{"push", &pushPrefetch, ih.FlippedEdges(), func(bd Breakdown) time.Duration { return bd.FlippedBusy }, "flipped-ns/edge"},
			} {
				step := altBench{prefix: "step/" + kernel.name + "/", unit: "ns/edge", div: float64(ih.NumE),
					phases: []altPhase{{kernel.unit, float64(kernel.edges)}}}
				for _, body := range bodies {
					step.arms = append(step.arms, altArm{body.name, func() []time.Duration {
						ForceGoTwins(false)
						*kernel.dist = body.dist
						e.TakeBreakdown()
						e.Step(src, dst)
						return []time.Duration{kernel.busy(e.TakeBreakdown())}
					}})
				}
				step.run(b)
			}
		})
	}
}

// BenchmarkLaneKernel times the K-lane flipped push and sparse pull of
// the (graph, width) pairs that have a register-resident body — 8 lanes
// on a graph that flips, and the 4-lane pull over the same graph built
// resident, which has no push (what the daemon runs on a raw file),
// and the resident 8-lane pull (the ppr8 rung on small-resident) — each
// through the run-time-K loop ("generic"), through the Go body the
// engine selects ("fixed", the Go twin) and, where the CPU has AVX2,
// through the assembly ("avx2", the 8-lane cells at the prefetch
// distance the engine's setWidth picks for the width).
// One thread, over R-MATs of the benchmark's small-resident shape
// (scale 14, all in L2) and at scale 17 (the largest resident graph).
// Kernels are called directly, every task and row in order: the number
// is the inner loop's, per edge-lane. The bodies of one cell alternate
// within the process (altBench), each row's ratio quartiles taken over
// the fixed body's. DESIGN.md §8 records the table.
//
// The scale=20 rows are the lane prefetch sweep (laneKernelPastL2),
// run only when the -bench pattern names "scale=20": their graph is
// social-flipped's, 16 M edges, so a pattern that merely matches every
// sub-benchmark (CI's -bench LaneKernel smoke) stays on 14 and 17.
func BenchmarkLaneKernel(b *testing.B) {
	defer ForceGoTwins(false)
	if f := flag.Lookup("test.bench"); f != nil && strings.Contains(f.Value.String(), "scale=20") {
		b.Run("scale=20", laneKernelPastL2)
	}
	for _, scale := range []int{14, 17} {
		g, err := gen.RMAT(gen.DefaultRMAT(scale, 16, 1))
		if err != nil {
			b.Fatal(err)
		}
		flipped, err := Build(g, Params{HubsPerBlock: flipB})
		if err != nil {
			b.Fatal(err)
		}
		resident, err := Build(g, Params{})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range []struct {
			name string
			ih   *IHTL
			k    int
		}{
			{"flat", flipped, 8}, {"resident-flat", resident, 4}, {"resident-flat", resident, 8},
		} {
			ih := c.ih
			e, err := NewEngine(ih, testPool)
			if err != nil {
				b.Fatal(err)
			}
			rows := ih.NumV - ih.Sparse.DestLo
			k := c.k
			e.setWidth(k) // the width's prefetch distance, as a StepBatch would set it
			b.Logf("scale %d, %s, k = %d: %d KB of lanes, prefetch distance %d", scale, c.name, k, ih.NumV*k*8>>10, e.batch.prefetch)
			src := make([]float64, ih.NumV*k)
			for i := range src {
				src[i] = 1 / float64(ih.NumV)
			}
			dst := make([]float64, ih.NumV*k)
			buf := make([]float64, ih.NumHubs*k)
			bodies := []string{"fixed", "generic"}
			if spmv.HasAVX2() {
				bodies = append(bodies, "avx2")
			}
			pull := altBench{prefix: fmt.Sprintf("scale=%d/pull/%s/k%d/", scale, c.name, k), unit: "ns/edge-lane", div: float64(ih.Sparse.NumEdges() * int64(k))}
			push := altBench{prefix: fmt.Sprintf("scale=%d/push/%s/k%d/", scale, c.name, k), unit: "ns/edge-lane", div: float64(ih.FlippedEdges() * int64(k))}
			for _, body := range bodies {
				generic := body == "generic"
				pull.arms = append(pull.arms, altArm{body, func() []time.Duration {
					ForceGoTwins(body != "avx2")
					for r := 0; r < rows; r++ {
						if generic {
							db := (ih.Sparse.DestLo + r) * k
							e.pullRowGeneric(r, k, src, dst[db:db+k:db+k])
						} else {
							e.pullRowLanes(r, k, src, dst)
						}
					}
					return nil
				}})
				push.arms = append(push.arms, altArm{body, func() []time.Duration {
					ForceGoTwins(body != "avx2")
					for t := range e.blockTasks {
						bt := &e.blockTasks[t]
						if generic {
							pushTaskFlatBatch(k, bt, &ih.Blocks[bt.block], src, buf)
						} else {
							e.pushTaskBatch(k, bt, src, buf)
						}
					}
					return nil
				}})
			}
			pull.run(b)
			if len(ih.Blocks) > 0 {
				push.run(b)
			}
		}
	}
}

// laneKernelPastL2 is BenchmarkLaneKernel's scale=20 case: R-MAT 20
// (social-flipped's graph) built with the default Params, the flat
// 8-lane cells past the cache — 39 MiB of lanes, an 8 MiB hub buffer —
// at each prefetch distance of the sweep ("avx2-d0" is the plain loop)
// beside the Go twin ("fixed"). Push and pull one thread, called
// directly as above, ns per edge-lane; then a dense K = 8 StepBatch on
// two workers per distance, ns per edge-lane and the busy milliseconds
// a Step of the flipped push and of the sparse pull (Breakdown's
// FlippedBusy and SparseBusy, summed over workers). Each set of rows
// alternates its bodies (altBench). DESIGN.md §8,
// "Prefetching the lanes", records the sweep prefetchDist is picked
// from.
func laneKernelPastL2(b *testing.B) {
	g, err := gen.RMAT(gen.DefaultRMAT(20, 16, 1))
	if err != nil {
		b.Fatal(err)
	}
	ih, err := Build(g, Params{})
	if err != nil {
		b.Fatal(err)
	}
	const k = 8
	src := make([]float64, ih.NumV*k)
	for i := range src {
		src[i] = 1 / float64(ih.NumV)
	}
	dst := make([]float64, ih.NumV*k)
	type body struct {
		name string
		dist int // the prefetch distance; < 0 is the Go twin
	}
	bodies := []body{{"fixed", -1}}
	if spmv.HasAVX2() {
		for _, d := range []int{0, 16, 32, 64, 128} {
			bodies = append(bodies, body{fmt.Sprintf("avx2-d%d", d), d})
		}
	}
	e, err := NewEngine(ih, testPool)
	if err != nil {
		b.Fatal(err)
	}
	e.setWidth(k)
	b.Logf("%d vertices, %d edges, %d hubs: %d MiB of lanes, setWidth picks distance %d", ih.NumV, ih.NumE, ih.NumHubs, ih.NumV*k*8>>20, e.batch.prefetch)
	buf := make([]float64, ih.NumHubs*k)
	rows := ih.NumV - ih.Sparse.DestLo
	pool := sched.NewPool(2)
	defer pool.Close()
	se, err := NewEngine(ih, pool)
	if err != nil {
		b.Fatal(err)
	}
	se.StepBatch(src, dst, k) // page in dst and the hub buffers; sets the width
	pull := altBench{prefix: "pull/flat/k8/", unit: "ns/edge-lane", div: float64(ih.Sparse.NumEdges() * k)}
	push := altBench{prefix: "push/flat/k8/", unit: "ns/edge-lane", div: float64(ih.FlippedEdges() * k)}
	step := altBench{prefix: "step/k8/", unit: "ns/edge-lane", div: float64(ih.NumE * k),
		phases: []altPhase{{"flipped-ms", 1e6}, {"sparse-ms", 1e6}}}
	for _, bd := range bodies {
		pick := func(e *Engine) {
			ForceGoTwins(bd.dist < 0)
			e.batch.prefetch = max(bd.dist, 0) // the width stays 8, so setWidth keeps it
		}
		pull.arms = append(pull.arms, altArm{bd.name, func() []time.Duration {
			pick(e)
			for r := 0; r < rows; r++ {
				e.pullRowLanes(r, k, src, dst)
			}
			return nil
		}})
		push.arms = append(push.arms, altArm{bd.name, func() []time.Duration {
			pick(e)
			for t := range e.blockTasks {
				e.pushTaskBatch(k, &e.blockTasks[t], src, buf)
			}
			return nil
		}})
		step.arms = append(step.arms, altArm{bd.name, func() []time.Duration {
			pick(se)
			se.TakeBreakdown()
			se.StepBatch(src, dst, k)
			t := se.TakeBreakdown()
			return []time.Duration{t.FlippedBusy, t.SparseBusy}
		}})
	}
	pull.run(b)
	push.run(b)
	step.run(b)
}

// BenchmarkStepBatchActive is the crossover measurement behind
// analytics.activeRowFrac: one K = 8 Step over the web analog at 200 k
// pages, two workers, with a given share of the rows holding anything
// but +0.0 (drawn uniformly), stepped densely and through the
// active-row entry. No epilogue: the driver's sweep skips the same rows
// the Step does. DESIGN.md §8 "Active rows" records the table.
func BenchmarkStepBatchActive(b *testing.B) {
	cfg := gen.DefaultWeb(200_000, 1002)
	cfg.MeanOutDegree = 6 // the benchmark's web-sparse shape
	g, err := gen.Web(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ih, err := Build(g, Params{}) // the default, as web-sparse builds it: 1.6 MB of vertex data is past the resident threshold
	if err != nil {
		b.Fatal(err)
	}
	pool := sched.NewPool(2)
	defer pool.Close()
	e, err := NewEngine(ih, pool)
	if err != nil {
		b.Fatal(err)
	}
	const k = 8
	n := ih.NumV
	dst := make([]float64, n*k)
	e.StepBatch(dst, make([]float64, n*k), k) // page in dst and the hub buffers
	touched := spmv.NewRowSet(n)
	for _, perMille := range []uint64{1, 10, 100, 500} {
		rng := xrand.New(perMille)
		src := make([]float64, n*k)
		active := spmv.NewRowSet(n)
		for v := 0; v < n; v++ {
			if rng.Uint64n(1000) < perMille {
				active.Add(v)
				for j := 0; j < k; j++ {
					src[v*k+j] = 1 / float64(n)
				}
			}
		}
		perLane := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(ih.NumE)/k, "ns/edge-lane")
		}
		name := fmt.Sprintf("rows=%g%%", float64(perMille)/10)
		b.Run(name+"/dense", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.StepBatch(src, dst, k)
			}
			perLane(b)
		})
		b.Run(name+"/active", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := e.StepBatchActiveCtx(nil, src, dst, k, active, touched, nil); err != nil {
					b.Fatal(err)
				}
			}
			perLane(b)
		})
	}
}

// BenchmarkStepResident is the crossover measurement behind
// Params.resident: R-MAT scales 14–19 (edge factor 16, the benchmark's
// small-resident and social-flipped shape), two workers, each built
// both ways — "flip" with B = 131 072 given explicitly, which is what
// every default build was before the rule and still is past it, and
// "noflip" as one pull-traversed block, forced at any scale by a
// CacheBytes that just holds the vertex data — and stepped scalar and
// at 8 lanes. The log line of a scale says which of the two default
// Params build there. DESIGN.md "The resident regime" records the
// table. A scale's graph is generated only when one of its
// sub-benchmarks is selected: -bench 'StepResident/scale=(14|17)$' is
// the CI smoke; all six scales at -benchtime 100x -count 5 take about
// 100 s and, at scale 19, a few hundred MB.
func BenchmarkStepResident(b *testing.B) {
	pool := sched.NewPool(2)
	defer pool.Close()
	for scale := 14; scale <= 19; scale++ {
		b.Run(fmt.Sprintf("scale=%d", scale), func(b *testing.B) {
			g, err := gen.RMAT(gen.DefaultRMAT(scale, 16, 1))
			if err != nil {
				b.Fatal(err)
			}
			side := "flip"
			if (Params{}).resident(g.NumV) {
				side = "noflip"
			}
			b.Logf("%d vertices, %d edges, %d KB of vertex data: default Params build %s", g.NumV, g.NumE, g.NumV*DefaultVertexBytes>>10, side)
			for _, c := range []struct {
				name string
				p    Params
			}{{"flip", Params{HubsPerBlock: flipB}}, {"noflip", Params{CacheBytes: g.NumV * DefaultVertexBytes}}} {
				ih, err := BuildWith(g, c.p, pool)
				if err != nil {
					b.Fatal(err)
				}
				if (len(ih.Blocks) == 0) != (c.name == "noflip") {
					b.Fatalf("%s build has %d flipped blocks", c.name, len(ih.Blocks))
				}
				e, err := NewEngine(ih, pool)
				if err != nil {
					b.Fatal(err)
				}
				for _, k := range []int{1, 8} {
					src := make([]float64, ih.NumV*k)
					for i := range src {
						src[i] = 1 / float64(ih.NumV)
					}
					dst := make([]float64, ih.NumV*k)
					b.Run(fmt.Sprintf("%s/k%d", c.name, k), func(b *testing.B) {
						e.StepBatch(src, dst, k) // page in dst and the hub buffers
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							e.StepBatch(src, dst, k) // the scalar Step at k = 1
						}
						b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(ih.NumE)/float64(k), "ns/edge-lane")
					})
				}
			}
		})
	}
}
