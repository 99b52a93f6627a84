package analytics

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"ihtl/internal/core"
	"ihtl/internal/faultinject"
	"ihtl/internal/gen"
	"ihtl/internal/sched"
	"ihtl/internal/spmv"
)

// PageRank on an engine that streams its epilogue: a core.Engine over a
// graph with no flipped block runs the update on each pulled part, so
// RunPageRankCtx double-buffers the contributions.

// The engine must keep the active-row capability PPR looks for by
// assertion; a method that drifts would silently drop the mode.
var _ activeRowStepper = (*core.Engine)(nil)

// pageRankDigest hashes a result's ranks, iterations and delta, bit for
// bit.
func pageRankDigest(res PageRankResult) string {
	h := sha256.New()
	var b [8]byte
	for _, r := range res.Ranks {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(r))
		h.Write(b[:])
	}
	fmt.Fprintf(h, "iters=%d delta=%x", res.Iters, math.Float64bits(res.Delta))
	return fmt.Sprintf("%x", h.Sum(nil))
}

// residentPageRankDigest is pageRankDigest of RunPageRank with default
// options over the default build of R-MAT scale 12 (edge factor 16,
// seed 1), as every engine computed it before the epilogue streamed —
// barrier placement, per-worker partial sums — at 1 to 4 workers. The
// ranks are element-wise and the L1 delta is a sum of differences on
// one fixed grid, exact in any grouping, so neither placement nor slot
// grid may move a bit (93 iterations).
const residentPageRankDigest = "0a3d4f58c586930679c066ce235667cec5c7e728ea45f4cc23bf5e7966326439"

func residentPageRankGraph(t *testing.T, scale int) *core.IHTL {
	t.Helper()
	ih, err := core.Build(mustRMAT(t, scale, 16, 1), core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ih.Blocks) != 0 {
		t.Fatalf("scale %d built %d flipped blocks; want the resident regime's none", scale, len(ih.Blocks))
	}
	return ih
}

func newStreamingEngine(t *testing.T, ih *core.IHTL, pool *sched.Pool, opt core.EngineOptions) *core.Engine {
	t.Helper()
	e, err := core.NewEngineOpts(ih, pool, opt)
	if err != nil {
		t.Fatal(err)
	}
	if slots, streamed := e.EpiSlots(); !streamed || slots != 4*pool.Workers() {
		t.Fatalf("%+v engine reports %d slots, streamed %v; want the %d sparse parts, streamed", opt, slots, streamed, 4*pool.Workers())
	}
	return e
}

// barrierEngine holds a streaming engine to the barrier placement: its
// EpiSlots reports the same slot grid, not streamed, so a driver hands
// the engine epilogues without Stream and the engine runs them behind
// its barrier — on the same grid, where a driver writes in place.
type barrierEngine struct{ *core.Engine }

func (b barrierEngine) EpiSlots() (slots int, streamed bool) {
	slots, _ = b.Engine.EpiSlots()
	return slots, false
}

// TestPageRankStreamedDeterministic: on a stealing engine that streams,
// five runs at 2 and at 4 workers give the same ranks, iterations and
// delta bit for bit — the same engine's behind the barrier, and those
// the engines computed before streaming. With dangling redistribution
// the mass is a sum of ranks, grouped by slot: runs still agree with
// each other and with the barrier placement, whose slot grid is the
// same.
func TestPageRankStreamedDeterministic(t *testing.T) {
	ih := residentPageRankGraph(t, 12)
	deg := ih.OutDegrees()
	for _, workers := range []int{2, 4} {
		pool := sched.NewPool(workers)
		defer pool.Close()
		e := newStreamingEngine(t, ih, pool, core.EngineOptions{})
		for _, red := range []bool{false, true} {
			opt := PageRankOptions{RedistributeDangling: red}
			want, err := RunPageRank(barrierEngine{e}, deg, pool, opt)
			if err != nil {
				t.Fatal(err)
			}
			wantDigest := pageRankDigest(want)
			if !red && wantDigest != residentPageRankDigest {
				t.Fatalf("w%d: the barrier placement's PageRank digest %s, want the barrier-era %s", workers, wantDigest, residentPageRankDigest)
			}
			for run := 0; run < 5; run++ {
				got, err := RunPageRank(e, deg, pool, opt)
				if err != nil {
					t.Fatal(err)
				}
				if d := pageRankDigest(got); d != wantDigest {
					t.Fatalf("w%d dangling=%v run %d: streamed digest %s (%d iterations, delta %g), want %s (%d, %g)",
						workers, red, run, d, got.Iters, got.Delta, wantDigest, want.Iters, want.Delta)
				}
			}
		}
	}
}

// TestPageRankStreamedRollback runs the daemon's engine options
// (HealthRollback) over a graph with no flipped block:
// a NaN poisoned into the fourth Step — after the streamed epilogue has
// written it into ranks and the second contribution buffer — rolls the
// run back two iterations, to a checkpoint the current buffer is
// rebuilt from, and the run ends on the clean run's bits. A resumed run
// on the same engine does too.
func TestPageRankStreamedRollback(t *testing.T) {
	ih := residentPageRankGraph(t, 11)
	deg := ih.OutDegrees()
	e := newStreamingEngine(t, ih, testPool, core.EngineOptions{
		Health: spmv.HealthPolicy{Mode: spmv.HealthRollback},
	})
	opt := PageRankOptions{MaxIters: 20, Tol: -1, RedistributeDangling: true, CheckpointEvery: 2}
	clean, err := RunPageRank(e, deg, testPool, opt)
	if err != nil {
		t.Fatal(err)
	}

	// The poison fires once per non-empty slot per step (every sparse part
	// of this graph holds rows): After=3·slots lands in the fourth Step.
	slots, _ := e.EpiSlots()
	faultinject.Activate(faultinject.NewPlan(faultinject.Rule{
		Site: faultinject.SiteStepHealth, Kind: faultinject.NaN,
		After: int64(3 * slots), Times: 1,
	}))
	got, err := RunPageRank(e, deg, testPool, opt)
	faultinject.Deactivate()
	if err != nil {
		t.Fatalf("rollback did not absorb the numeric fault: %v", err)
	}
	if got.Rollbacks != 1 {
		t.Fatalf("Rollbacks = %d, want 1", got.Rollbacks)
	}
	got.Rollbacks = 0
	if pageRankDigest(got) != pageRankDigest(clean) {
		t.Fatalf("rolled-back run (%d iterations, delta %g) is not the clean run's bits (%d, %g)", got.Iters, got.Delta, clean.Iters, clean.Delta)
	}

	var ckpt *Checkpoint
	half := opt
	half.MaxIters = 9
	half.CheckpointEvery = 3
	half.OnCheckpoint = func(c *Checkpoint) { ckpt = c.Clone() }
	if _, err := RunPageRank(e, deg, testPool, half); err != nil {
		t.Fatal(err)
	}
	resumed := opt
	resumed.Resume = ckpt
	res, err := RunPageRank(e, deg, testPool, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if pageRankDigest(res) != pageRankDigest(clean) {
		t.Fatalf("run resumed at iteration %d is not the clean run's bits", ckpt.Iter)
	}
}

// BenchmarkResidentSparseKernel times the sparse pull on a graph with
// no flipped block (DESIGN.md §18, "The kernel and the epilogue"):
// R-MAT scales 12–17 (edge factor 16, the benchmark's small-resident
// shape; 17 is the largest graph the resident rule builds), two
// workers, the default build stepped under the uniform pull, which
// streams PageRank's epilogue: a plain Step, and a PageRank iteration
// (20 iterations a run, no tolerance). A scale's graph is generated
// only when one of its sub-benchmarks is selected.
func BenchmarkResidentSparseKernel(b *testing.B) {
	pool := sched.NewPool(2)
	defer pool.Close()
	const iters = 20
	for scale := 12; scale <= 17; scale++ {
		b.Run(fmt.Sprintf("scale=%d", scale), func(b *testing.B) {
			g, err := gen.RMAT(gen.DefaultRMAT(scale, 16, 1))
			if err != nil {
				b.Fatal(err)
			}
			ih, err := core.BuildWith(g, core.Params{}, pool)
			if err != nil {
				b.Fatal(err)
			}
			if len(ih.Blocks) != 0 {
				b.Fatalf("scale %d built %d flipped blocks", scale, len(ih.Blocks))
			}
			deg := ih.OutDegrees()
			src := make([]float64, ih.NumV)
			for i := range src {
				src[i] = 1 / float64(ih.NumV)
			}
			dst := make([]float64, ih.NumV)
			e, err := core.NewEngine(ih, pool)
			if err != nil {
				b.Fatal(err)
			}
			b.Run("pull/step", func(b *testing.B) {
				e.Step(src, dst) // page in dst
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.Step(src, dst)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(ih.NumE), "ns/edge")
			})
			b.Run("pull/pagerank", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := RunPageRank(e, deg, pool, PageRankOptions{MaxIters: iters, Tol: -1}); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*iters)/float64(ih.NumE), "ns/edge")
			})
		})
	}
}
