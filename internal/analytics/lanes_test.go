package analytics

import (
	"context"
	"math"
	"runtime"
	"testing"
	"time"

	"ihtl/internal/core"
	"ihtl/internal/faultinject"
	"ihtl/internal/graph"
	"ihtl/internal/spmv"
)

// countdownCtx is a deterministic context for exercising per-lane
// boundary checks: Err() succeeds `left` times and then returns the
// configured error forever. It replaces wall-clock deadlines in tests
// so "the deadline expired at iteration boundary 3" is exact, not a
// race against the scheduler.
type countdownCtx struct {
	left int
	err  error
}

func (c *countdownCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *countdownCtx) Done() <-chan struct{}       { return nil }
func (c *countdownCtx) Value(any) any               { return nil }
func (c *countdownCtx) Err() error {
	if c.left > 0 {
		c.left--
		return nil
	}
	return c.err
}

// laneTestEngine builds a core engine plus engine-ID-space degrees and
// a set of k sources with outgoing edges. The engine's static flipped
// task → worker split is what the bitwise lane-vs-solo contracts below
// rest on.
func laneTestEngine(t *testing.T, scale, k int) (*core.Engine, []int, []int) {
	t.Helper()
	g := mustRMAT(t, scale, 8, 97)
	ih, err := core.Build(g, core.Params{HubsPerBlock: 64}.ForBatch(k))
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngine(ih, testPool)
	if err != nil {
		t.Fatal(err)
	}
	deg := make([]int, g.NumV)
	for nv := 0; nv < g.NumV; nv++ {
		deg[nv] = g.OutDegree(ih.OldID[nv])
	}
	var srcs []int
	for v := 0; v < g.NumV && len(srcs) < k; v += 1 + g.NumV/(3*k) {
		if deg[v] > 0 {
			srcs = append(srcs, v)
		}
	}
	if len(srcs) != k {
		t.Fatalf("found only %d sources", len(srcs))
	}
	return e, deg, srcs
}

func collectLanes(t *testing.T, e spmv.Stepper, deg []int, lanes []LaneRequest, opt PageRankOptions) map[int]LaneResult {
	t.Helper()
	got := map[int]LaneResult{}
	err := RunPPRLanes(nil, e, deg, testPool, lanes, opt, func(r LaneResult) {
		if _, dup := got[r.Lane]; dup {
			t.Fatalf("lane %d emitted twice", r.Lane)
		}
		got[r.Lane] = r
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(lanes) {
		t.Fatalf("%d lanes emitted, want %d", len(got), len(lanes))
	}
	return got
}

// TestLanesBitIdenticalToSolo is the coalescing exactness contract:
// every lane of a K-wide batch, stopping at its own convergence
// iteration, must reproduce bit-for-bit the ranks, iteration count,
// and final delta of a solo (K=1) run of the same source on the same
// engine.
func TestLanesBitIdenticalToSolo(t *testing.T) {
	const k = 4
	e, deg, srcs := laneTestEngine(t, 9, k)
	opt := PageRankOptions{MaxIters: 80, Tol: 1e-6, RedistributeDangling: true}

	lanes := make([]LaneRequest, k)
	for j, s := range srcs {
		lanes[j] = LaneRequest{Source: s}
	}
	got := collectLanes(t, e, deg, lanes, opt)

	for j, s := range srcs {
		solo, err := RunPersonalizedPageRankCtx(nil, e, deg, testPool, []int{s}, opt)
		if err != nil {
			t.Fatal(err)
		}
		r := got[j]
		if r.Status != LaneConverged {
			t.Fatalf("lane %d status %v, want converged", j, r.Status)
		}
		if r.Iters != solo.Iters {
			t.Fatalf("lane %d converged at iter %d, solo at %d", j, r.Iters, solo.Iters)
		}
		if math.Float64bits(r.Delta) != math.Float64bits(solo.Deltas[0]) {
			t.Fatalf("lane %d delta %v, solo %v", j, r.Delta, solo.Deltas[0])
		}
		for v := range r.Ranks {
			if math.Float64bits(r.Ranks[v]) != math.Float64bits(solo.Ranks[v]) {
				t.Fatalf("lane %d rank[%d] = %v, solo %v", j, v, r.Ranks[v], solo.Ranks[v])
			}
		}
	}
}

// TestLanesWorkspaceReuse: one workspace carried from batch to batch,
// as a daemon slot carries it — widths up and down, a library Run on
// the same arrays in between — gives every batch the bits a fresh
// RunPPRLanes gives it, and once it has seen the widest batch its n×K
// arrays are not allocated again.
func TestLanesWorkspaceReuse(t *testing.T) {
	e, deg, srcs := laneTestEngine(t, 9, 4)
	opt := PageRankOptions{MaxIters: 40, Tol: 1e-6, RedistributeDangling: true, CheckpointEvery: 4}
	var ws PPRWorkspace
	run := func(ws *PPRWorkspace, lanes []LaneRequest) map[int]LaneResult {
		got := map[int]LaneResult{}
		if err := ws.RunLanes(nil, e, deg, testPool, lanes, opt, func(r LaneResult) { got[r.Lane] = r }); err != nil {
			t.Fatal(err)
		}
		return got
	}
	for i, width := range []int{4, 2, 4, 1, 3} {
		lanes := make([]LaneRequest, width)
		for j := range lanes {
			lanes[j] = LaneRequest{Source: srcs[(i+j)%len(srcs)]}
		}
		if i == 3 { // a run of the other driver on the same arrays
			if _, err := ws.Run(nil, e, deg, testPool, srcs[:2], opt); err != nil {
				t.Fatal(err)
			}
		}
		got, want := run(&ws, lanes), run(new(PPRWorkspace), lanes)
		for j := range lanes {
			g, w := got[j], want[j]
			if g.Status != w.Status || g.Iters != w.Iters || math.Float64bits(g.Delta) != math.Float64bits(w.Delta) || len(g.Ranks) != len(w.Ranks) {
				t.Fatalf("batch %d lane %d: %v after %d iterations, fresh workspace %v after %d", i, j, g.Status, g.Iters, w.Status, w.Iters)
			}
			for v := range w.Ranks {
				if math.Float64bits(g.Ranks[v]) != math.Float64bits(w.Ranks[v]) {
					t.Fatalf("batch %d lane %d rank[%d] = %v, fresh workspace %v", i, j, v, g.Ranks[v], w.Ranks[v])
				}
			}
		}
	}
	lanes := []LaneRequest{{Source: srcs[0]}, {Source: srcs[1]}, {Source: srcs[2]}, {Source: srcs[3]}}
	n := len(deg)
	perBatch := func(ws func() *PPRWorkspace) float64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		const batches = 5
		for i := 0; i < batches; i++ {
			run(ws(), lanes)
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.TotalAlloc-m0.TotalAlloc) / batches
	}
	kept := perBatch(func() *PPRWorkspace { return &ws })
	fresh := perBatch(func() *PPRWorkspace { return new(PPRWorkspace) })
	// A fresh workspace allocates invDeg, three n×4 arrays and the
	// snapshot, 17·n floats, on top of what both allocate (the emitted
	// rank copies, 4·n floats, among it).
	if arrays := float64(17 * n * 8); fresh-kept < 0.9*arrays {
		t.Errorf("a kept workspace allocates %.0f B a batch, a fresh one %.0f B: the %.0f B of arrays are not being kept", kept, fresh, arrays)
	}
}

// TestLanesDeadlinePartial pins the degraded mode: a lane whose ctx
// expires at iteration boundary B is emitted as a LaneDeadline partial
// whose ranks are exactly the solo run's state after B iterations,
// while its batchmates run on unperturbed.
func TestLanesDeadlinePartial(t *testing.T) {
	const k = 3
	e, deg, srcs := laneTestEngine(t, 9, k)
	opt := PageRankOptions{MaxIters: 12, Tol: -1, RedistributeDangling: true}

	const expireAfter = 3
	lanes := []LaneRequest{
		{Source: srcs[0]},
		{Source: srcs[1], Ctx: &countdownCtx{left: expireAfter, err: context.DeadlineExceeded}},
		{Source: srcs[2]},
	}
	got := collectLanes(t, e, deg, lanes, opt)

	r := got[1]
	if r.Status != LaneDeadline || r.Converged() {
		t.Fatalf("expired lane status %v, want deadline", r.Status)
	}
	if r.Iters != expireAfter {
		t.Fatalf("expired lane stopped at iter %d, want %d", r.Iters, expireAfter)
	}
	partial, err := RunPersonalizedPageRankCtx(nil, e, deg, testPool, []int{srcs[1]},
		PageRankOptions{MaxIters: expireAfter, Tol: -1, RedistributeDangling: true})
	if err != nil {
		t.Fatal(err)
	}
	for v := range r.Ranks {
		if math.Float64bits(r.Ranks[v]) != math.Float64bits(partial.Ranks[v]) {
			t.Fatalf("partial rank[%d] = %v, solo-after-%d = %v", v, r.Ranks[v], expireAfter, partial.Ranks[v])
		}
	}
	for _, j := range []int{0, 2} {
		if got[j].Status != LaneIterCap || got[j].Iters != opt.MaxIters {
			t.Fatalf("survivor lane %d: status %v iters %d", j, got[j].Status, got[j].Iters)
		}
		solo, err := RunPersonalizedPageRankCtx(nil, e, deg, testPool, []int{srcs[j]}, opt)
		if err != nil {
			t.Fatal(err)
		}
		for v := range got[j].Ranks {
			if math.Float64bits(got[j].Ranks[v]) != math.Float64bits(solo.Ranks[v]) {
				t.Fatalf("survivor lane %d rank[%d] = %v, solo %v", j, v, got[j].Ranks[v], solo.Ranks[v])
			}
		}
	}
}

// TestLanesCancelledLaneReclaimed: a cancelled (abandoned) lane is
// freed at the next iteration boundary with no ranks, and the
// remaining lanes still match their solo runs bit-for-bit.
func TestLanesCancelledLaneReclaimed(t *testing.T) {
	const k = 2
	e, deg, srcs := laneTestEngine(t, 9, k)
	opt := PageRankOptions{MaxIters: 60, Tol: 1e-6, RedistributeDangling: true}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	lanes := []LaneRequest{
		{Source: srcs[0], Ctx: cancelled},
		{Source: srcs[1]},
	}
	got := collectLanes(t, e, deg, lanes, opt)

	if got[0].Status != LaneCancelled {
		t.Fatalf("abandoned lane status %v, want cancelled", got[0].Status)
	}
	if got[0].Ranks != nil {
		t.Fatal("abandoned lane carried ranks")
	}
	solo, err := RunPersonalizedPageRankCtx(nil, e, deg, testPool, []int{srcs[1]}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got[1].Status != LaneConverged || got[1].Iters != solo.Iters {
		t.Fatalf("survivor: status %v iters %d, solo converged at %d", got[1].Status, got[1].Iters, solo.Iters)
	}
	for v := range got[1].Ranks {
		if math.Float64bits(got[1].Ranks[v]) != math.Float64bits(solo.Ranks[v]) {
			t.Fatalf("survivor rank[%d] = %v, solo %v", v, got[1].Ranks[v], solo.Ranks[v])
		}
	}
}

// TestLanesRollbackNeverReEmits drives a numeric fault into a batch
// containing a lane that converges before the fault lands: the
// rollback rewinds past the lane's convergence point, the lane re-runs
// and re-converges, and the emitted guard must keep its result from
// being delivered twice. The surviving lane's result must match a
// fault-free solo run bit-for-bit (rollback restores the trajectory
// exactly).
func TestLanesRollbackNeverReEmits(t *testing.T) {
	// A 4-cycle plus an isolated vertex 4: a lane sourced at 4 keeps
	// its unit mass (dangling redistribution returns it to the source)
	// and converges at iteration 1 with delta exactly 0. The explicit
	// build options keep the zero-degree vertex (the default fixture
	// path would strip it).
	g, err := graph.Build(5, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 0},
	}, graph.BuildOptions{Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	ih, berr := core.Build(g, core.Params{HubsPerBlock: 4}.ForBatch(2))
	if berr != nil {
		t.Fatal(berr)
	}
	e, err := core.NewEngineOpts(ih, testPool, core.EngineOptions{
		Health: spmv.HealthPolicy{Mode: spmv.HealthRollback},
	})
	if err != nil {
		t.Fatal(err)
	}
	deg := make([]int, g.NumV)
	for nv := 0; nv < g.NumV; nv++ {
		deg[nv] = g.OutDegree(ih.OldID[nv])
	}
	isolated, cyclic := int(ih.NewID[4]), int(ih.NewID[0])
	opt := PageRankOptions{MaxIters: 40, Tol: 1e-12, RedistributeDangling: true, CheckpointEvery: 1}

	// The health poison hook fires once per non-empty epilogue slot per
	// step; After=1·slots lands the NaN inside iteration 2's step —
	// right after the isolated lane converged at iteration 1 and was
	// emitted, so the rollback target (snapshot at iteration 1, taken
	// before convergence was applied) still has that lane active.
	// Times=1 lets the post-rollback retry come up clean.
	slots, _ := e.EpiSlots()
	faultinject.Activate(faultinject.NewPlan(faultinject.Rule{
		Site: faultinject.SiteStepHealth, Kind: faultinject.NaN,
		After: int64(1 * slots), Times: 1,
	}))
	defer faultinject.Deactivate()

	emits := map[int]int{}
	var results [2]LaneResult
	err = RunPPRLanes(nil, e, deg, testPool,
		[]LaneRequest{{Source: isolated}, {Source: cyclic}}, opt,
		func(r LaneResult) {
			emits[r.Lane]++
			results[r.Lane] = r
		})
	if err != nil {
		t.Fatalf("rollback did not absorb the fault: %v", err)
	}
	for j, n := range emits {
		if n != 1 {
			t.Fatalf("lane %d emitted %d times", j, n)
		}
	}
	if results[0].Status != LaneConverged || results[0].Iters != 1 {
		t.Fatalf("isolated lane: status %v iters %d, want converged at 1", results[0].Status, results[0].Iters)
	}
	faultinject.Deactivate()
	solo, err := RunPersonalizedPageRankCtx(nil, e, deg, testPool, []int{cyclic}, PageRankOptions{
		MaxIters: 40, Tol: 1e-12, RedistributeDangling: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[1].Iters != solo.Iters {
		t.Fatalf("cyclic lane converged at %d, fault-free solo at %d", results[1].Iters, solo.Iters)
	}
	for v := range results[1].Ranks {
		if math.Float64bits(results[1].Ranks[v]) != math.Float64bits(solo.Ranks[v]) {
			t.Fatalf("cyclic rank[%d] = %v, solo %v", v, results[1].Ranks[v], solo.Ranks[v])
		}
	}
}

func TestLanesErrors(t *testing.T) {
	e, deg, srcs := laneTestEngine(t, 6, 1)
	if err := RunPPRLanes(nil, e, deg, testPool, nil, PageRankOptions{}, nil); err == nil {
		t.Error("no lanes: want error")
	}
	if err := RunPPRLanes(nil, e, deg, testPool, []LaneRequest{{Source: len(deg)}}, PageRankOptions{}, nil); err == nil {
		t.Error("out-of-range source: want error")
	}
	if err := RunPPRLanes(nil, e, deg, testPool, []LaneRequest{{Source: srcs[0]}},
		PageRankOptions{Resume: &Checkpoint{Algo: "ppr", K: 1, Ranks: []float64{}, Aux: []float64{0}}}, nil); err == nil {
		t.Error("Resume: want error")
	}
}
