package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"ihtl/internal/gen"
	"ihtl/internal/graph"
	"ihtl/internal/sched"
	"ihtl/internal/spmv"
)

// Feature slices of the oracle. TestOracle steps the whole generated
// matrix; each test below steps one feature's slice of it — its builds,
// worker counts, option rows, widths and arms — through
// requireOracleCell, TestOracle's check of one cell, so `go test -run`
// selects a feature by the name it has always had. None has a reference
// of its own: every expected vector is referenceStep's (refStep's for
// an iHTL built by hand).

// requireOracleCell is the oracle's check of one cell: each exact input
// (exactInput, unsigned and signed) steps twice through e at width k,
// and both results must be c's reference bits — the second proves the
// hub buffers, dirty ranges and gates were left clean.
func requireOracleCell(t *testing.T, label string, c oracleCase, e *Engine, k int) {
	t.Helper()
	dst := make([]float64, c.ih.NumV*k)
	for i, in := range exactCells(c, k) {
		for step := 1; step <= 2; step++ {
			for j := range dst {
				dst[j] = math.NaN() // a row the step does not write shows
			}
			e.StepBatch(in.src, dst, k)
			requireBitIdentical(t, fmt.Sprintf("%s/k%d/signed=%v step %d", label, k, i == 1, step), in.want, dst)
		}
	}
}

// exactCell is an exact input and the reference's Step of it.
type exactCell struct{ src, want []float64 }

var exactCache struct {
	sync.Mutex
	m map[exactKey][]exactCell
}

type exactKey struct {
	ih *IHTL
	k  int
}

// exactCells returns c's exact inputs at width k, unsigned and signed,
// with the reference's results, computed once per build and width: a
// slice steps many engines over one build.
func exactCells(c oracleCase, k int) []exactCell {
	exactCache.Lock()
	defer exactCache.Unlock()
	key := exactKey{c.ih, k}
	if cells, ok := exactCache.m[key]; ok {
		return cells
	}
	var cells []exactCell
	for i, signed := range []bool{false, true} {
		src := exactInput(uint64(10*k+i), c.ih.NumV, k, signed)
		cells = append(cells, exactCell{src, c.want(src, k)})
	}
	if exactCache.m == nil {
		exactCache.m = map[exactKey][]exactCell{}
	}
	exactCache.m[key] = cells
	return cells
}

// oracleBuilds builds every diffGraphs graph with p.
func oracleBuilds(t *testing.T, p Params) map[string]oracleCase {
	t.Helper()
	cases := map[string]oracleCase{}
	for name, g := range diffGraphs(t) {
		cases[name] = oracleBuild(t, name, g, p)
	}
	return cases
}

func oracleBuild(t *testing.T, name string, g *graph.Graph, p Params) oracleCase {
	t.Helper()
	ih, err := Build(g, p)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return oracleCase{name, ih, g}
}

func newOracleEngine(t *testing.T, ih *IHTL, pool *sched.Pool, opt EngineOptions) *Engine {
	t.Helper()
	e, err := NewEngineOpts(ih, pool, opt)
	if err != nil {
		t.Fatalf("%s: %v", optLabel(opt), err)
	}
	return e
}

// runGraphWorkers runs f as subtest "<graph>/w<workers>" for every case
// at B = 64 and every worker count, over a pool of that many workers.
func runGraphWorkers(t *testing.T, workerCounts []int, f func(t *testing.T, c oracleCase, pool *sched.Pool)) {
	for name, c := range oracleBuilds(t, Params{HubsPerBlock: 64}) {
		for _, workers := range workerCounts {
			t.Run(fmt.Sprintf("%s/w%d", name, workers), func(t *testing.T) {
				pool := sched.NewPool(workers)
				defer pool.Close()
				f(t, c, pool)
			})
		}
	}
}

// TestStepDifferentialMatrixPull: every row of the option matrix at one
// lane, B = 64, 1-3 workers; a row whose sparse block is walked
// edge-major steps once more on the Go twins of its pair loop.
func TestStepDifferentialMatrixPull(t *testing.T) {
	arms := asmArms(t)
	edgeMajorRows := 0
	runGraphWorkers(t, []int{1, 2, 3}, func(t *testing.T, c oracleCase, pool *sched.Pool) {
		for _, opt := range optionMatrix(t, nil) {
			e := newOracleEngine(t, c.ih, pool, opt)
			requireOracleCell(t, optLabel(opt), c, e, 1)
			if e.sparseAdv == nil {
				continue
			}
			edgeMajorRows++
			for _, arm := range arms[1:] {
				ForceGoTwins(arm == "go")
				requireOracleCell(t, optLabel(opt)+"/"+arm, c, e, 1)
			}
			ForceGoTwins(false)
		}
	})
	if edgeMajorRows == 0 {
		t.Error("no row of the option matrix walks its sparse block edge-major")
	}
}

// TestStepDifferentialSignedZero: every row of the option matrix on the
// signed inputs' -0.0 rows, at one lane (spmv.SkipZero) and at two
// (spmv.SkipZeroLanes: a row -0.0 in one lane must not be skipped).
func TestStepDifferentialSignedZero(t *testing.T) {
	pool := sched.NewPool(3)
	defer pool.Close()
	for name, c := range oracleBuilds(t, Params{HubsPerBlock: 64}) {
		for _, opt := range optionMatrix(t, nil) {
			e := newOracleEngine(t, c.ih, pool, opt)
			for _, k := range []int{1, 2} {
				requireOracleCell(t, name+"/"+optLabel(opt), c, e, k)
			}
		}
	}
}

// TestEncodingDifferential: the packed rows, as a v2 file stores them
// and the open decodes them, at one lane, 1-3 workers.
func TestEncodingDifferential(t *testing.T) {
	runGraphWorkers(t, []int{1, 2, 3}, func(t *testing.T, c oracleCase, pool *sched.Pool) {
		c.ih = openPackedV2(t, c.ih)
		requireOracleCell(t, "packed", c, newOracleEngine(t, c.ih, pool, EngineOptions{}), 1)
	})
}

// TestEncodingBatchDifferential: the decoded packed rows at widths 2
// and 5, the run-time-K loop.
func TestEncodingBatchDifferential(t *testing.T) {
	pool := sched.NewPool(3)
	defer pool.Close()
	for name, c := range oracleBuilds(t, Params{HubsPerBlock: 64}) {
		c.ih = openPackedV2(t, c.ih)
		e := newOracleEngine(t, c.ih, pool, EngineOptions{})
		for _, k := range []int{2, 5} {
			requireOracleCell(t, name, c, e, k)
		}
	}
}

// TestSparseKernelDifferential: the default engine — the uniform sparse
// pull — at one lane, 1-3 workers.
func TestSparseKernelDifferential(t *testing.T) {
	runGraphWorkers(t, []int{1, 2, 3}, func(t *testing.T, c oracleCase, pool *sched.Pool) {
		requireOracleCell(t, "default", c, newOracleEngine(t, c.ih, pool, EngineOptions{}), 1)
	})
}

// TestSparseKernelBatchDifferential: the deprecated SparseKernel and
// Phased values, which no code reads, at widths 2 and 4: every one is
// the default engine.
func TestSparseKernelBatchDifferential(t *testing.T) {
	pool := sched.NewPool(3)
	defer pool.Close()
	for name, c := range oracleBuilds(t, Params{HubsPerBlock: 64}) {
		for kname, kernel := range map[string]SparseKernel{"pull": SparsePull, "pb": SparsePB} {
			for _, phased := range []bool{false, true} {
				e := newOracleEngine(t, c.ih, pool, EngineOptions{SparseKernel: kernel, Phased: phased})
				for _, k := range []int{2, 4} {
					t.Run(fmt.Sprintf("%s/kernel=%s phased=%v/k%d", name, kname, phased, k), func(t *testing.T) {
						requireOracleCell(t, name, c, e, k)
					})
				}
			}
		}
	}
}

// TestStepBatchDifferential: widths 1, 2, 4 and 8 (the fixed-width flat
// body among them) with 1 and 3 workers, Phased (read by no code) off
// and on.
func TestStepBatchDifferential(t *testing.T) {
	for name, c := range oracleBuilds(t, Params{HubsPerBlock: 64}) {
		for _, workers := range []int{1, 3} {
			pool := sched.NewPool(workers)
			defer pool.Close()
			for _, phased := range []bool{false, true} {
				e := newOracleEngine(t, c.ih, pool, EngineOptions{Phased: phased})
				for _, k := range []int{1, 2, 4, 8} {
					// The literal "atomic=false" keeps these subtests under
					// the names they have always run by.
					label := fmt.Sprintf("%s/w%d/phased=%v atomic=false/k%d", name, workers, phased, k)
					t.Run(label, func(t *testing.T) { requireOracleCell(t, label, c, e, k) })
				}
			}
		}
	}
}

// TestStepBatchWidthChange: one engine stepped at widths 4, 2, 8 and 1,
// each followed by a scalar Step, as the daemon alternates them: every
// width's buffers are resliced from the widest seen, and each result
// must still be the reference's.
func TestStepBatchWidthChange(t *testing.T) {
	c := oracleBuilds(t, Params{HubsPerBlock: 32})["rmat"]
	e := newOracleEngine(t, c.ih, testPool, EngineOptions{})
	for _, k := range []int{4, 2, 8, 1} {
		requireOracleCell(t, "batch", c, e, k)
		requireOracleCell(t, fmt.Sprintf("scalar after k=%d", k), c, e, 1)
	}
}

// TestStepBatchMergeStress: eight workers merging a scale-10 graph's
// blocks at four lanes, step after step — a countdown or gate left
// behind by one step shows in a later one.
func TestStepBatchMergeStress(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(10, 8, 13))
	if err != nil {
		t.Fatal(err)
	}
	c := oracleBuild(t, "rmat10", g, Params{HubsPerBlock: 32})
	pool := sched.NewPool(8)
	defer pool.Close()
	e := newOracleEngine(t, c.ih, pool, EngineOptions{})
	iters := 30
	if testing.Short() {
		iters = 8
	}
	for i := 0; i < iters; i++ {
		requireOracleCell(t, fmt.Sprintf("iter %d", i), c, e, 4)
	}
}

// requireOracleActive is the oracle's active-row check: one step from
// sparseLaneInput's set must touch exactly the rows the graph's
// in-lists say, each holding the reference's bits, and write no other;
// epi, if not nil, is the step's epilogue.
func requireOracleActive(t *testing.T, label string, c oracleCase, e *Engine, k, every int, extra bool, epi func(w, lo, hi int)) {
	t.Helper()
	src, active := sparseLaneInput(uint64(17*k+every), c.ih.NumV, k, every, extra)
	got, touched := stepActive(t, label, e, src, active, k, epi)
	requireActiveRows(t, label, c.touched(active), touched, got, c.want(src, k), k)
}

// TestStepBatchActiveMatchesDense: active-row steps over every flat
// option row at widths 1, 2, 5 and 8, 1-3 workers, from sets of every
// density (none, one row in 1000, 40, 2, every row), exact and with
// extra all-zero rows; the epilogue must cover every row once.
func TestStepBatchActiveMatchesDense(t *testing.T) {
	for name, c := range oracleBuilds(t, Params{HubsPerBlock: 64}) {
		for _, workers := range []int{1, 2, 3} {
			pool := sched.NewPool(workers)
			defer pool.Close()
			for _, opt := range optionMatrix(t, func(o EngineOptions) bool {
				return o.Health == spmv.HealthPolicy{}
			}) {
				e := newOracleEngine(t, c.ih, pool, opt)
				for _, k := range []int{1, 2, 5, 8} {
					for _, every := range []int{0, 1000, 40, 2, 1} {
						for _, extra := range []bool{false, true} {
							label := fmt.Sprintf("%s/w%d/%s/k%d/1in%d/extra=%v", name, workers, optLabel(opt), k, every, extra)
							covered := make([]int, workers) // one count a worker: they run concurrently
							requireOracleActive(t, label, c, e, k, every, extra, func(w, lo, hi int) { covered[w] += hi - lo })
							total := 0
							for _, n := range covered {
								total += n
							}
							if total != c.ih.NumV {
								t.Fatalf("%s: epilogue covered %v of %d rows", label, covered, c.ih.NumV)
							}
						}
					}
				}
			}
		}
	}
}

// TestStepBatchActiveOddBlocks: active-row steps at B = 40
// (oddBlockParams), whose blocks share words of the hub bits, at widths
// 1, 4 and 8.
func TestStepBatchActiveOddBlocks(t *testing.T) {
	pool := sched.NewPool(3)
	defer pool.Close()
	graphs := diffGraphs(t)
	for _, name := range []string{"rmat", "web"} {
		c := oracleCase{name, oddBlockIHTL(t, graphs[name]), graphs[name]}
		e := newOracleEngine(t, c.ih, pool, EngineOptions{})
		for _, k := range []int{1, 4, 8} {
			for _, every := range []int{1000, 40, 3, 1} {
				label := fmt.Sprintf("%s/B40/%d-blocks/k%d/1in%d", name, len(c.ih.Blocks), k, every)
				requireOracleActive(t, label, c, e, k, every, every == 3, nil)
			}
		}
	}
}

// TestLayoutDifferential: each layout forced on every block (CSR,
// edge-major) and by shape, 1-3 workers, on both arms, over holesIHTL
// and every graph at B = 64 — the exact inputs, a vector of ±0.0, ±Inf
// and NaN (specialVec), and vectors all +0.0 and all -0.0.
func TestLayoutDifferential(t *testing.T) {
	arms := asmArms(t)
	cases := []oracleCase{{name: "holes", ih: holesIHTL()}}
	for _, c := range oracleBuilds(t, Params{HubsPerBlock: 64}) {
		cases = append(cases, c)
	}
	for _, c := range cases {
		n := c.ih.NumV
		negZero := make([]float64, n)
		for i := range negZero {
			negZero[i] = math.Copysign(0, -1)
		}
		specials := [][]float64{specialVec(33, n), make([]float64, n), negZero}
		wants := make([][]float64, len(specials))
		for i, src := range specials {
			wants[i] = c.want(src, 1)
		}
		for _, workers := range []int{1, 2, 3} {
			pool := sched.NewPool(workers)
			for _, layout := range []BlockLayout{LayoutCSR, LayoutEdgeMajor, layoutByShape} {
				e := newOracleEngine(t, c.ih, pool, EngineOptions{forceLayout: layout})
				label := fmt.Sprintf("%s/w%d/%v", c.name, workers, layout)
				requireOracleEngine(t, label, e, c.ih, workers, layout)
				dst := make([]float64, n)
				for _, arm := range arms {
					ForceGoTwins(arm == "go")
					requireOracleCell(t, label+"/"+arm, c, e, 1)
					for i, src := range specials {
						e.Step(src, dst)
						requireSameBits(t, fmt.Sprintf("%s/%s/special %d", label, arm, i), wants[i], dst)
					}
				}
				ForceGoTwins(false)
			}
			pool.Close()
		}
	}
}

// residentCases are residentGraphs built at the resident default: no
// flipped block, one sparse block walked CSR on rmat and edge-major on
// web.
func residentCases(t *testing.T) map[string]oracleCase {
	t.Helper()
	cases := map[string]oracleCase{}
	for name, g := range residentGraphs(t) {
		c := oracleBuild(t, name, g, Params{})
		requireZeroBlocks(t, name, c.ih)
		if l := c.ih.BlockShapes()[0].Layout; (l == LayoutEdgeMajor) != (name == "web") {
			t.Fatalf("%s: the sparse block is walked %v; the table wants CSR on rmat and edge-major on web", name, l)
		}
		cases[name] = c
	}
	return cases
}

// TestResidentDifferential: the zero-block build, on both arms, 1-3
// workers, with the watchdog off and in Rollback, at widths 1, 4 and 8.
func TestResidentDifferential(t *testing.T) {
	arms := asmArms(t)
	for name, c := range residentCases(t) {
		for _, arm := range arms {
			ForceGoTwins(arm == "go")
			for _, workers := range []int{1, 2, 3} {
				pool := sched.NewPool(workers)
				defer pool.Close()
				for _, health := range []spmv.HealthPolicy{{}, {Mode: spmv.HealthRollback}} {
					opt := EngineOptions{Health: health}
					e := newOracleEngine(t, c.ih, pool, opt)
					for _, k := range []int{1, 4, 8} {
						requireOracleCell(t, fmt.Sprintf("%s/%s/w%d/%s", name, arm, workers, optLabel(opt)), c, e, k)
					}
				}
			}
		}
		ForceGoTwins(false)
	}
}

// TestV2RawFileDifferential: the zero-block build opened from its raw v2
// file and in memory, on both arms, 1-3 workers, every row of the option
// matrix, at widths 1, 4 and 8: its four-lane rows read their ids out
// of the mapping.
func TestV2RawFileDifferential(t *testing.T) {
	arms := asmArms(t)
	for name, c := range residentCases(t) {
		opened := openV2(t, v2Bytes(t, c.ih)).IHTL()
		for _, arm := range arms {
			ForceGoTwins(arm == "go")
			for _, workers := range []int{1, 2, 3} {
				pool := sched.NewPool(workers)
				defer pool.Close()
				for _, opt := range optionMatrix(t, nil) {
					for from, ih := range map[string]*IHTL{"file": opened, "memory": c.ih} {
						label := fmt.Sprintf("%s/%s/w%d/%s/%s", name, arm, workers, from, optLabel(opt))
						e := newOracleEngine(t, ih, pool, opt)
						for _, k := range []int{1, 4, 8} {
							requireOracleCell(t, label, c, e, k)
						}
					}
				}
			}
		}
		ForceGoTwins(false)
	}
}
