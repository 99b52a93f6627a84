package analytics

import (
	"context"
	"fmt"
	"math"
	"testing"

	"ihtl/internal/core"
	"ihtl/internal/faultinject"
	"ihtl/internal/sched"
	"ihtl/internal/spmv"
)

// The PPR drivers on an engine that streams their epilogue: a
// core.Engine over a graph with no flipped block runs each dense step's
// sweep on a pulled part while other parts are still pulled, writing the
// next contributions into the workspace's next buffer. The Phased engine
// over the same graph has the same slot grid behind a barrier, where the
// sweep writes them in place; every run here must end on its bits.

// streamCounter wraps a core engine and counts the steps whose epilogue
// was handed over with Stream set, so a test can tell a run that
// streamed from one that silently stepped behind the barrier. Embedding
// the engine keeps its active-row entry.
type streamCounter struct {
	*core.Engine
	streamed int
}

func (c *streamCounter) StepCtx(ctx context.Context, src, dst []float64, k int, epi spmv.Epilogue) error {
	if epi.Stream {
		c.streamed++
	}
	return c.Engine.StepCtx(ctx, src, dst, k, epi)
}

// streamPair is a streaming engine and the barrier engine it is held to,
// over one resident graph on one pool.
type streamPair struct {
	stream  *streamCounter
	barrier *core.Engine
	deg     []int
	sources []int
}

func newStreamPair(t *testing.T, ih *core.IHTL, pool *sched.Pool, opt core.EngineOptions) streamPair {
	t.Helper()
	barrierOpt := opt
	barrierOpt.Phased = true
	barrier, err := core.NewEngineOpts(ih, pool, barrierOpt)
	if err != nil {
		t.Fatal(err)
	}
	if slots, streamed := barrier.EpiSlots(); streamed || slots != 4*pool.Workers() {
		t.Fatalf("Phased engine reports %d slots, streamed %v; want the sparse parts behind the barrier", slots, streamed)
	}
	deg := ih.OutDegrees()
	// Sources of every kind: the first and last rows, dangling rows, and
	// one row twice (two lanes on one source row). Lanes 1 and 2, which
	// the lane runs freeze, have out-edges, so neither converges first.
	withEdges := func(v int) int {
		for deg[v] == 0 {
			v++
		}
		return v
	}
	sources := []int{0, withEdges(ih.NumV / 3), withEdges(ih.NumV / 2), ih.NumV - 1}
	for v := ih.NumV - 1; v >= 0 && len(sources) < 6; v-- {
		if deg[v] == 0 {
			sources = append(sources, v)
		}
	}
	sources = append(sources, 7, sources[1])
	return streamPair{&streamCounter{Engine: newStreamingEngine(t, ih, pool, opt)}, barrier, deg, sources}
}

// requireLanesEqual fails unless two RunLanes deliveries agree bit for
// bit: status, iterations, delta and ranks of every lane.
func requireLanesEqual(t *testing.T, label string, got, want map[int]LaneResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d lanes delivered, want %d", label, len(got), len(want))
	}
	for j, w := range want {
		g := got[j]
		if g.Status != w.Status || g.Iters != w.Iters || math.Float64bits(g.Delta) != math.Float64bits(w.Delta) || (g.Ranks == nil) != (w.Ranks == nil) {
			t.Fatalf("%s: lane %d: %v after %d (delta %v), want %v after %d (delta %v)", label, j, g.Status, g.Iters, g.Delta, w.Status, w.Iters, w.Delta)
		}
		for v := range w.Ranks {
			if math.Float64bits(g.Ranks[v]) != math.Float64bits(w.Ranks[v]) {
				t.Fatalf("%s: lane %d rank[%d] = %v, want %v", label, j, v, g.Ranks[v], w.Ranks[v])
			}
		}
	}
}

// rowOpArms runs f once per body of the PPR row op this host has: the
// AVX2 one where the CPU and build have it, then the Go twin.
func rowOpArms(t *testing.T, f func(arm string)) {
	defer func(on bool) { pprRowAsm = on }(pprRowAsm)
	if spmv.HasAVX2() {
		pprRowAsm = true
		f("avx2")
	}
	pprRowAsm = false
	f("twin")
}

// TestPPRStreamedMatchesBarrier is the streamed driver's differential
// table: Run and RunLanes on a streaming engine against the Phased
// engine, at widths 1, 2, 3, 4, 5 and 8 and 1 to 3 workers — a
// tolerance stop, RedistributeDangling, a run that steps densely from
// the start and one that leaves the active-row mode when its rows fill,
// lanes frozen by a deadline and by a cancellation — ranks, deltas and
// iteration counts bit for bit, under each body of the row op. Every
// run must have streamed.
func TestPPRStreamedMatchesBarrier(t *testing.T) {
	ih := residentPageRankGraph(t, 10)
	opts := map[string]PageRankOptions{
		"tol":      {MaxIters: 200, Tol: 1e-9},
		"dangling": {MaxIters: 25, Tol: -1, RedistributeDangling: true},
	}
	for _, workers := range []int{1, 2, 3} {
		pool := sched.NewPool(workers)
		defer pool.Close()
		p := newStreamPair(t, ih, pool, core.EngineOptions{})
		wantRun := map[string]PPRResult{}
		wantLanes := map[string]map[int]LaneResult{}
		rowOpArms(t, func(arm string) {
			for _, k := range []int{1, 2, 3, 4, 5, 8} {
				sources := p.sources[:k]
				for name, opt := range opts {
					want, err := new(PPRWorkspace).Run(nil, p.barrier, p.deg, pool, sources, opt)
					if err != nil {
						t.Fatal(err)
					}
					key := fmt.Sprintf("k=%d %s", k, name)
					if w, ok := wantRun[key]; ok {
						requirePPREqual(t, fmt.Sprintf("w%d %s %s: barrier against the first arm", workers, arm, key), want, w)
					} else {
						wantRun[key] = want
					}
					for _, leave := range []string{"at once", "when full"} {
						ws := PPRWorkspace{}
						if leave == "at once" {
							ws.leaveActive = leaveAtOnce
						}
						before := p.stream.streamed
						got, err := ws.Run(nil, p.stream, p.deg, pool, sources, opt)
						if err != nil {
							t.Fatal(err)
						}
						label := fmt.Sprintf("w%d %s %s leave %s", workers, arm, key, leave)
						requirePPREqual(t, label, got, want)
						if p.stream.streamed == before {
							t.Fatalf("%s: no step streamed", label)
						}
					}

					lanes := func() []LaneRequest {
						ls := make([]LaneRequest, k)
						for j := range ls {
							ls[j].Source = sources[j]
						}
						if k >= 3 {
							ls[1].Ctx = &countdownCtx{left: 4, err: context.DeadlineExceeded}
							ls[2].Ctx = &countdownCtx{left: 6, err: context.Canceled}
						}
						return ls
					}
					want2 := collectLanes(t, p.barrier, p.deg, lanes(), opt)
					if w, ok := wantLanes[key]; ok {
						requireLanesEqual(t, fmt.Sprintf("w%d %s %s: barrier lanes against the first arm", workers, arm, key), want2, w)
					} else {
						wantLanes[key] = want2
					}
					before := p.stream.streamed
					got2 := collectLanes(t, p.stream, p.deg, lanes(), opt)
					label := fmt.Sprintf("w%d %s %s lanes", workers, arm, key)
					requireLanesEqual(t, label, got2, want2)
					if p.stream.streamed == before {
						t.Fatalf("%s: no step streamed", label)
					}
					if k >= 3 && (got2[1].Status != LaneDeadline || got2[2].Status != LaneCancelled) {
						t.Fatalf("%s: lanes 1 and 2 ended %v and %v, want deadline and cancelled", label, got2[1].Status, got2[2].Status)
					}
				}
			}
		})
	}
}

// TestPPRStreamedRollbackAndResume runs both drivers on the daemon's
// engine options (StaticFlipped, HealthRollback) over a graph with no
// flipped block, against the Phased engine: a NaN poisoned into the
// fourth step mid-way through its slots — after the streamed sweep has
// written some of them into ranks and next — rolls each run back to its
// checkpoint, and the run ends on the barrier engine's clean bits; a Run
// resumed from a mid-run checkpoint does too.
func TestPPRStreamedRollbackAndResume(t *testing.T) {
	ih := residentPageRankGraph(t, 10)
	p := newStreamPair(t, ih, testPool, core.EngineOptions{
		StaticFlipped: true, Health: spmv.HealthPolicy{Mode: spmv.HealthRollback},
	})
	slots, _ := p.stream.EpiSlots()
	poison := func() {
		faultinject.Activate(faultinject.NewPlan(faultinject.Rule{
			Site: faultinject.SiteStepHealth, Kind: faultinject.NaN,
			After: int64(3*slots + slots/2), Times: 1,
		}))
	}
	rowOpArms(t, func(arm string) {
		for _, k := range []int{1, 4, 5, 8} {
			sources := p.sources[:k]
			opt := PageRankOptions{MaxIters: 20, Tol: -1, RedistributeDangling: true, CheckpointEvery: 2}
			want, err := new(PPRWorkspace).Run(nil, p.barrier, p.deg, testPool, sources, opt)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s k=%d", arm, k)

			poison()
			before := p.stream.streamed
			got, err := new(PPRWorkspace).Run(nil, p.stream, p.deg, testPool, sources, opt)
			faultinject.Deactivate()
			if err != nil {
				t.Fatalf("%s: rollback did not absorb the numeric fault: %v", label, err)
			}
			if got.Rollbacks != 1 || p.stream.streamed == before {
				t.Fatalf("%s: %d rollbacks, %d streamed steps; want 1 and some", label, got.Rollbacks, p.stream.streamed-before)
			}
			got.Rollbacks = 0
			requirePPREqual(t, label+" rolled back", got, want)

			var ckpt *Checkpoint
			half := opt
			half.MaxIters, half.CheckpointEvery = 9, 3
			half.OnCheckpoint = func(c *Checkpoint) { ckpt = c.Clone() }
			if _, err := new(PPRWorkspace).Run(nil, p.stream, p.deg, testPool, sources, half); err != nil {
				t.Fatal(err)
			}
			resumed := opt
			resumed.Resume = ckpt
			res, err := new(PPRWorkspace).Run(nil, p.stream, p.deg, testPool, sources, resumed)
			if err != nil {
				t.Fatal(err)
			}
			requirePPREqual(t, fmt.Sprintf("%s resumed at iteration %d", label, ckpt.Iter), res, want)

			lanes := make([]LaneRequest, k)
			for j := range lanes {
				lanes[j].Source = sources[j]
			}
			wantLanes := collectLanes(t, p.barrier, p.deg, lanes, opt)
			poison()
			gotLanes := collectLanes(t, p.stream, p.deg, lanes, opt)
			faultinject.Deactivate()
			requireLanesEqual(t, label+" lanes rolled back", gotLanes, wantLanes)
		}
	})
}
