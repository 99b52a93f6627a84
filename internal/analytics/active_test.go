package analytics

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"ihtl/internal/core"
	"ihtl/internal/faultinject"
	"ihtl/internal/gen"
	"ihtl/internal/graph"
	"ihtl/internal/sched"
	"ihtl/internal/spmv"
)

// activeCounter wraps a core engine — single or sharded — and counts the
// steps its active-row entry honoured, so a test can tell a run that
// took the mode from one that silently stepped densely.
type activeCounter struct {
	activeRowStepper
	honoured int
}

func (c *activeCounter) StepBatchActiveCtx(ctx context.Context, src, dst []float64, k int, active, touched spmv.RowSet, epi func(w, lo, hi int)) (bool, error) {
	ok, err := c.activeRowStepper.StepBatchActiveCtx(ctx, src, dst, k, active, touched, epi)
	if ok {
		c.honoured++
	}
	return ok, err
}

// The switch rules the differential forces through
// PPRWorkspace.leaveActive.
var (
	leaveAtOnce = func(iter, rows, n int) bool { return true }
	leaveAt3    = func(iter, rows, n int) bool { return iter >= 3 }
	leaveNever  = func(iter, rows, n int) bool { return false }
)

func activeTestGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	web, err := gen.Web(gen.DefaultWeb(2000, 5))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{"rmat": mustRMAT(t, 9, 8, 61), "web": web, "path": graph.Path(300)}
}

// sourceCandidates are the rows the issue's table asks a source to sit
// on, in the engine's ID space: a hub, a sparse row, a dangling vertex
// (when the graph has one), the first and the last vertex, and the hub
// and the sparse row again so that a batch holds duplicates.
func sourceCandidates(ih *core.IHTL, deg []int) []int {
	n := ih.NumV
	hub, sparse := 0, n/2
	if ih.NumHubs > 0 {
		hub = ih.NumHubs / 2
	}
	if ih.NumHubs < n {
		sparse = ih.NumHubs + (n-ih.NumHubs)/3
	}
	cands := []int{hub, sparse}
	for v := n - 1; v >= 0; v-- {
		if deg[v] == 0 {
			cands = append(cands, v)
			break
		}
	}
	return append(cands, 0, n-1, hub, sparse)
}

func requirePPREqual(t *testing.T, label string, got, want PPRResult) {
	t.Helper()
	if got.K != want.K || got.Iters != want.Iters || got.Rollbacks != want.Rollbacks {
		t.Fatalf("%s: K=%d iters=%d rollbacks=%d, want K=%d iters=%d rollbacks=%d",
			label, got.K, got.Iters, got.Rollbacks, want.K, want.Iters, want.Rollbacks)
	}
	for i := range want.Ranks {
		if math.Float64bits(got.Ranks[i]) != math.Float64bits(want.Ranks[i]) {
			t.Fatalf("%s: rank[%d] (vertex %d lane %d) = %v, want %v", label, i, i/want.K, i%want.K, got.Ranks[i], want.Ranks[i])
		}
	}
	for j := range want.Deltas {
		if math.Float64bits(got.Deltas[j]) != math.Float64bits(want.Deltas[j]) {
			t.Fatalf("%s: delta[%d] = %v, want %v", label, j, got.Deltas[j], want.Deltas[j])
		}
	}
}

// TestPPRActiveRowsMatchDense is the differential table of the
// active-row mode: on a StaticFlipped engine a run that leaves the mode
// at iteration 3, one that never leaves it and one that follows the
// row count all equal, bit for bit — ranks, deltas, iteration count —
// the run that never enters it. So do they on the zero-block graph a
// default build makes of these (resident) inputs, where stealing is as
// reproducible as the static split. The table runs once per arm of the
// flat lane cells (their assembly where the CPU has AVX2, then the Go
// twins), and every dense run must equal the first arm's too.
func TestPPRActiveRowsMatchDense(t *testing.T) {
	type build struct {
		name string
		g    *graph.Graph
		p    core.Params
		opt  core.EngineOptions
	}
	var builds []build
	for name, g := range activeTestGraphs(t) {
		builds = append(builds, build{name, g, core.Params{HubsPerBlock: 64}, core.EngineOptions{StaticFlipped: true}})
		if name == "rmat" || !testing.Short() { // one resident graph is enough under the race detector
			builds = append(builds, build{name + "/resident", g, core.Params{}, core.EngineOptions{}})
		}
	}
	arms := []string{"go"}
	if core.ForceGoTwins(false) {
		arms = []string{"asm", "go"}
	}
	defer core.ForceGoTwins(false)
	firstArm := map[string]PPRResult{}
	for _, arm := range arms {
		core.ForceGoTwins(arm == "go")
		for _, b := range builds {
			name := b.name
			ih, err := core.Build(b.g, b.p)
			if err != nil {
				t.Fatal(err)
			}
			if b.p.HubsPerBlock == 0 && len(ih.Blocks) != 0 {
				t.Fatalf("%s: a default build of %d vertices has %d flipped blocks", name, ih.NumV, len(ih.Blocks))
			}
			deg := ih.OutDegrees()
			cands := sourceCandidates(ih, deg)
			for _, workers := range []int{1, 2, 3} {
				pool := sched.NewPool(workers)
				defer pool.Close()
				ce, err := core.NewEngineOpts(ih, pool, b.opt)
				if err != nil {
					t.Fatal(err)
				}
				e := &activeCounter{activeRowStepper: ce}
				var dense, sparse PPRWorkspace // reused from run to run, as ihtl.Engine does
				widths := []int{1, 2, 5, 8}
				if testing.Short() {
					widths = []int{1, 5} // the race detector runs this table; half of it is enough there
				}
				for _, k := range widths {
					for rot := range cands {
						sources := make([]int, k)
						for j := range sources {
							sources[j] = cands[(rot+j)%len(cands)]
						}
						for _, redistribute := range []bool{false, true} {
							opt := PageRankOptions{MaxIters: 9, Tol: -1, RedistributeDangling: redistribute}
							switch rot {
							case 0: // stop by tolerance: the iteration counts must agree
								opt = PageRankOptions{MaxIters: 40, Tol: 1e-4, RedistributeDangling: redistribute}
							case 1: // no teleport but returned dangling mass: a source row can fall to zero and come back
								opt.Damping = 1
							}
							key := fmt.Sprintf("%s/w%d/k%d/rot%d/sources%v/redistribute=%v", name, workers, k, rot, sources, redistribute)
							label := arm + "/" + key
							dense.leaveActive = leaveAtOnce
							e.honoured = 0
							want, err := dense.Run(nil, e, deg, pool, sources, opt)
							if err != nil {
								t.Fatal(err)
							}
							if e.honoured != 0 {
								t.Fatalf("%s: the dense run took %d active-row steps", label, e.honoured)
							}
							if first, ok := firstArm[key]; ok {
								requirePPREqual(t, label+" against "+arms[0], want, first)
							} else {
								want.Ranks, want.Deltas = slices.Clone(want.Ranks), slices.Clone(want.Deltas) // Run's ranks are the workspace's
								firstArm[key] = want
							}
							for rule, leave := range map[string]func(iter, rows, n int) bool{"at3": leaveAt3, "never": leaveNever, "by-count": nil} {
								sparse.leaveActive = leave
								e.honoured = 0
								got, err := sparse.Run(nil, e, deg, pool, sources, opt)
								if err != nil {
									t.Fatal(err)
								}
								requirePPREqual(t, label+"/"+rule, got, want)
								switch {
								case rule == "at3" && e.honoured != min(3, want.Iters):
									t.Fatalf("%s/at3: %d active-row steps, want %d", label, e.honoured, min(3, want.Iters))
								case rule == "never" && e.honoured != want.Iters:
									t.Fatalf("%s/never: %d active-row steps of %d", label, e.honoured, want.Iters)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestPPRActiveRowsFollowTheIterate pins the rule itself: a path graph's
// iterate grows by one row a step and never passes n/activeRowFrac in
// nine, so the run stays in the mode; an R-MAT graph's passes it inside
// a few steps, and the run leaves and does not return.
func TestPPRActiveRowsFollowTheIterate(t *testing.T) {
	for name, wantAll := range map[string]bool{"path": true, "rmat": false} {
		g := activeTestGraphs(t)[name]
		ih, err := core.Build(g, core.Params{HubsPerBlock: 64})
		if err != nil {
			t.Fatal(err)
		}
		ce, err := core.NewEngine(ih, testPool)
		if err != nil {
			t.Fatal(err)
		}
		e := &activeCounter{activeRowStepper: ce}
		res, err := RunPersonalizedPageRank(e, ih.OutDegrees(), testPool, []int{ih.NumHubs}, PageRankOptions{MaxIters: 9, Tol: -1})
		if err != nil {
			t.Fatal(err)
		}
		if all := e.honoured == res.Iters; all != wantAll || e.honoured == 0 {
			t.Errorf("%s: %d of %d steps took the active-row entry (want all: %v)", name, e.honoured, res.Iters, wantAll)
		}
	}
}

// TestPPRActiveRowsFallbacks runs the engines without active-row
// kernels — packed topology, the phased pipeline, the propagation-
// blocked sparse kernel, shards — through the same driver: each refuses
// the entry and still produces the flat engine's lanes.
func TestPPRActiveRowsFallbacks(t *testing.T) {
	g := mustRMAT(t, 9, 8, 67)
	ih, err := core.Build(g, core.Params{HubsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
	}
	deg := ih.OutDegrees()
	sources := sourceCandidates(ih, deg)[:4]
	opt := PageRankOptions{MaxIters: 12, Tol: -1, RedistributeDangling: true}
	ref, err := core.NewEngineOpts(ih, testPool, core.EngineOptions{StaticFlipped: true})
	if err != nil {
		t.Fatal(err)
	}
	refCount := &activeCounter{activeRowStepper: ref}
	want, err := RunPersonalizedPageRank(refCount, deg, testPool, sources, opt)
	if err != nil {
		t.Fatal(err)
	}
	if refCount.honoured == 0 {
		t.Fatal("the flat engine took no active-row step: nothing to fall back from")
	}
	for _, eo := range []core.EngineOptions{
		{StaticFlipped: true, BlockEncoding: core.EncodingVarint},
		{StaticFlipped: true, Phased: true},
		{StaticFlipped: true, SparseKernel: core.SparsePB},
	} {
		ce, err := core.NewEngineOpts(ih, testPool, eo)
		if err != nil {
			t.Fatal(err)
		}
		e := &activeCounter{activeRowStepper: ce}
		got, err := RunPersonalizedPageRank(e, deg, testPool, sources, opt)
		if err != nil {
			t.Fatal(err)
		}
		if e.honoured != 0 {
			t.Fatalf("%+v: honoured %d active-row steps", eo, e.honoured)
		}
		// Another task cut or merge order: the flat engine's lanes to
		// rounding, not to the bit.
		if got.Iters != want.Iters {
			t.Fatalf("%+v: %d iterations, want %d", eo, got.Iters, want.Iters)
		}
		for i := range want.Ranks {
			if math.Abs(got.Ranks[i]-want.Ranks[i]) > 1e-12 {
				t.Fatalf("%+v: rank[%d] = %g, flat engine %g", eo, i, got.Ranks[i], want.Ranks[i])
			}
		}
	}

	// A sharded engine steps in its own ID space and refuses every time.
	sg, err := core.BuildSharded(g, core.Params{HubsPerBlock: 64}, testPool, 2)
	if err != nil {
		t.Fatal(err)
	}
	se, err := core.NewShardedEngineOpts(sg, testPool, core.EngineOptions{StaticFlipped: true})
	if err != nil {
		t.Fatal(err)
	}
	shardSources := make([]int, len(sources))
	for j, s := range sources {
		shardSources[j] = int(sg.NewID[ih.OldID[s]])
	}
	seCount := &activeCounter{activeRowStepper: se}
	got, err := RunPersonalizedPageRank(seCount, sg.OutDegrees(), testPool, shardSources, opt)
	if err != nil {
		t.Fatal(err)
	}
	if seCount.honoured != 0 {
		t.Fatalf("sharded: honoured %d active-row steps", seCount.honoured)
	}
	lane, back, wantLane, wantBack := make([]float64, g.NumV), make([]float64, g.NumV), make([]float64, g.NumV), make([]float64, g.NumV)
	for j := range sources {
		sg.PermuteToOld(got.Lane(j, lane), back)
		ih.PermuteToOld(want.Lane(j, wantLane), wantBack)
		for v := range back {
			if math.Abs(back[v]-wantBack[v]) > 1e-12 {
				t.Fatalf("sharded lane %d rank[%d] = %g, flat engine %g", j, v, back[v], wantBack[v])
			}
		}
	}
}

// TestPPRActiveRowsFaultThenCleanRun aborts a run inside an active-row
// Step — a panic injected into the sparse pull, then a cancelled context
// — and requires the next run on the same engine and workspace to equal
// a run on fresh ones bit for bit: the failed run's sets and arrays
// describe nothing the next one reads.
func TestPPRActiveRowsFaultThenCleanRun(t *testing.T) {
	g := mustRMAT(t, 9, 8, 71)
	ih, err := core.Build(g, core.Params{HubsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
	}
	deg := ih.OutDegrees()
	sources := sourceCandidates(ih, deg)[:5]
	opt := PageRankOptions{MaxIters: 10, Tol: -1, RedistributeDangling: true}
	newEngine := func() *core.Engine {
		e, err := core.NewEngineOpts(ih, testPool, core.EngineOptions{StaticFlipped: true})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	fresh := PPRWorkspace{leaveActive: leaveNever}
	want, err := fresh.Run(nil, newEngine(), deg, testPool, sources, opt)
	if err != nil {
		t.Fatal(err)
	}

	e := newEngine()
	ws := PPRWorkspace{leaveActive: leaveNever}
	faultinject.Activate(faultinject.NewPlan(faultinject.Rule{
		Site: faultinject.SiteSparsePart, Kind: faultinject.Panic, After: 20, Times: 1,
	}))
	_, err = ws.Run(context.Background(), e, deg, testPool, sources, opt)
	faultinject.Deactivate()
	var perr *sched.PanicError
	if !errors.As(err, &perr) {
		t.Fatalf("injected panic: err = %v", err)
	}
	got, err := ws.Run(context.Background(), e, deg, testPool, sources, opt)
	if err != nil {
		t.Fatal(err)
	}
	requirePPREqual(t, "after panic", got, want)

	ctx, cancel := context.WithCancel(context.Background())
	cancelled := opt
	cancelled.CheckpointEvery = 1
	cancelled.OnCheckpoint = func(c *Checkpoint) {
		if c.Iter == 4 {
			cancel()
		}
	}
	if _, err := ws.Run(ctx, e, deg, testPool, sources, cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err = %v", err)
	}
	got, err = ws.Run(context.Background(), e, deg, testPool, sources, opt)
	if err != nil {
		t.Fatal(err)
	}
	requirePPREqual(t, "after cancel", got, want)
}

// TestPPRActiveRowsRollback poisons the third iteration of a run that is
// in the active-row mode on a HealthRollback engine: the watchdog scans
// only the rows the Step wrote and still sees the NaN, the run rewinds
// to its checkpoint, continues DENSELY (the sets no longer describe the
// arrays) and ends on the uninterrupted run's bits.
func TestPPRActiveRowsRollback(t *testing.T) {
	g := mustRMAT(t, 9, 8, 83)
	ih, err := core.Build(g, core.Params{HubsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
	}
	deg := ih.OutDegrees()
	sources := sourceCandidates(ih, deg)[:3]
	ce, err := core.NewEngineOpts(ih, testPool, core.EngineOptions{
		StaticFlipped: true, Health: spmv.HealthPolicy{Mode: spmv.HealthRollback},
	})
	if err != nil {
		t.Fatal(err)
	}
	e := &activeCounter{activeRowStepper: ce}
	opt := PageRankOptions{MaxIters: 10, Tol: -1, RedistributeDangling: true, CheckpointEvery: 1}
	ws := PPRWorkspace{leaveActive: leaveNever}
	want, err := ws.Run(nil, e, deg, testPool, sources, opt)
	if err != nil {
		t.Fatal(err)
	}
	if e.honoured != want.Iters {
		t.Fatalf("clean run: %d active-row steps of %d", e.honoured, want.Iters)
	}

	e.honoured = 0
	slots, _ := e.EpiSlots()
	faultinject.Activate(faultinject.NewPlan(faultinject.Rule{
		Site: faultinject.SiteStepHealth, Kind: faultinject.NaN,
		After: int64(2 * slots), Times: 1,
	}))
	defer faultinject.Deactivate()
	got, err := ws.Run(nil, e, deg, testPool, sources, opt)
	if err != nil {
		t.Fatalf("rollback did not absorb the numeric fault: %v", err)
	}
	if got.Rollbacks != 1 {
		t.Fatalf("Rollbacks = %d, want 1", got.Rollbacks)
	}
	if e.honoured != 3 {
		t.Fatalf("%d active-row steps, want 3: two clean, the poisoned third, dense from the rollback on", e.honoured)
	}
	want.Rollbacks = 1
	requirePPREqual(t, "after rollback", got, want)
}
