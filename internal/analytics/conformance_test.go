package analytics_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"ihtl"
	"ihtl/internal/analytics"
	"ihtl/internal/core"
	"ihtl/internal/faultinject"
	"ihtl/internal/gen"
	"ihtl/internal/sched"
	"ihtl/internal/spmv"
)

// conformanceSites are the worker sites an injected panic may land on:
// one of them is on every pooled engine's path.
var conformanceSites = []faultinject.Site{
	faultinject.SiteSchedClaim, faultinject.SitePullPart, faultinject.SitePushPart,
	faultinject.SiteFlippedTask, faultinject.SiteMergeBlock, faultinject.SiteSparsePart,
}

// TestStepperConformance holds every spmv.Stepper in the repository to
// the interface's contract, through the interface alone:
//
//   - the grid: EpiSlots' slots partition [0, n) into ascending ranges
//     in slot order, and an epilogue runs exactly once per slot per
//     step, at every width;
//   - widths: StepCtx at k ∈ {1, 4, 8} with no epilogue gives, lane by
//     lane, the bits of Step on that lane;
//   - placement: an epilogue sees its own rows final, and all of dst
//     final unless the call permitted streaming and EpiSlots reports
//     it — and on an engine that reports it, a permitted epilogue does
//     stream (checked on one worker, where reading rows another part
//     has not pulled yet is no data race);
//   - failure: a cancelled ctx returns ctx.Err(), an injected worker
//     panic returns a *sched.PanicError, and the next clean step equals
//     a fresh engine's.
//
// Integer-valued sources keep every engine's sums exact, so the
// atomic and stealing schedules are as deterministic as the rest.
func TestStepperConformance(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(10, 8, 5))
	if err != nil {
		t.Fatal(err)
	}
	pool := sched.NewPool(3)
	defer pool.Close()

	type row struct {
		name   string
		build  func(pool *sched.Pool) (spmv.Stepper, error)
		stream bool // EpiSlots must report streaming
	}
	rows := []row{}
	for _, dir := range []spmv.Direction{spmv.Pull, spmv.PushAtomic, spmv.PushBuffered, spmv.PushPartitioned} {
		rows = append(rows, row{name: "spmv/" + dir.String(), build: func(pool *sched.Pool) (spmv.Stepper, error) {
			return spmv.NewEngine(g, pool, dir, spmv.Options{})
		}})
	}
	flipped, err := core.Build(g, core.Params{HubsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
	}
	resident, err := core.Build(g, core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	rows = append(rows,
		row{name: "core/flipped", build: func(pool *sched.Pool) (spmv.Stepper, error) { return core.NewEngine(flipped, pool) }},
		row{name: "core/resident", stream: true, build: func(pool *sched.Pool) (spmv.Stepper, error) { return core.NewEngine(resident, pool) }},
		row{name: "ihtl/resident", stream: true, build: func(pool *sched.Pool) (spmv.Stepper, error) { return ihtl.NewEngine(g, pool, ihtl.Params{}) }},
		row{name: "analytics/seq", build: func(*sched.Pool) (spmv.Stepper, error) { return analytics.NewSeqStepper(g), nil }},
	)
	solo := sched.NewPool(1)
	defer solo.Close()

	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			e, err := r.build(pool)
			if err != nil {
				t.Fatal(err)
			}
			n := e.NumVertices()
			slots, streamed := e.EpiSlots()
			if slots < 1 || streamed != r.stream {
				t.Fatalf("EpiSlots = (%d, %v); want ≥ 1 slots, streamed %v", slots, streamed, r.stream)
			}
			for _, k := range []int{1, 4, 8} {
				src := integerLanes(n, k)
				want := lanewiseSteps(e, src, k)

				got := make([]float64, n*k)
				if err := e.StepCtx(nil, src, got, k, spmv.Epilogue{}); err != nil {
					t.Fatalf("k=%d: %v", k, err)
				}
				requireBits(t, fmt.Sprintf("k=%d StepCtx vs Step per lane", k), want, got)

				for _, permit := range []bool{false, true} {
					// Behind the barrier every row is final: reading them
					// all is race-free there, and must find them so.
					barrier := !(permit && streamed)
					if checkEpilogue(t, e, src, want, k, slots, permit, barrier) {
						t.Fatalf("k=%d permit=%v: an epilogue ran before all of dst was final", k, permit)
					}
				}
				if streamed {
					one, err := r.build(solo)
					if err != nil {
						t.Fatal(err)
					}
					oneSlots, oneStreamed := one.EpiSlots()
					if !oneStreamed || oneSlots < 2 {
						t.Fatalf("on one worker EpiSlots = (%d, %v); want ≥ 2 slots, streamed", oneSlots, oneStreamed)
					}
					for _, permit := range []bool{false, true} {
						if early := checkEpilogue(t, one, src, want, k, oneSlots, permit, true); early != permit {
							t.Fatalf("k=%d permit=%v on one worker: an epilogue ran before all of dst was final: %v", k, permit, early)
						}
					}
				}

				cancelled, cancel := context.WithCancel(context.Background())
				cancel()
				if err := e.StepCtx(cancelled, src, got, k, spmv.Epilogue{}); !errors.Is(err, context.Canceled) {
					t.Fatalf("k=%d: cancelled step returned %v, want context.Canceled", k, err)
				}
				rules := make([]faultinject.Rule, len(conformanceSites))
				for i, s := range conformanceSites {
					rules[i] = faultinject.Rule{Site: s, Kind: faultinject.Panic, After: 1}
				}
				plan := faultinject.NewPlan(rules...)
				faultinject.Activate(plan)
				err := e.StepCtx(context.Background(), src, got, k, spmv.Epilogue{})
				faultinject.Deactivate()
				fired := false
				for _, s := range conformanceSites {
					fired = fired || plan.Fired(s) > 0
				}
				var perr *sched.PanicError
				switch {
				case fired && !errors.As(err, &perr):
					t.Fatalf("k=%d: injected panic returned %v, want *sched.PanicError", k, err)
				case !fired && err != nil:
					t.Fatalf("k=%d: no fault fired, yet the step returned %v", k, err)
				}

				fresh, err := r.build(pool)
				if err != nil {
					t.Fatal(err)
				}
				wantFresh := make([]float64, n*k)
				if err := fresh.StepCtx(nil, src, wantFresh, k, spmv.Epilogue{}); err != nil {
					t.Fatal(err)
				}
				if err := e.StepCtx(nil, src, got, k, spmv.Epilogue{}); err != nil {
					t.Fatalf("k=%d: clean step after the faults: %v", k, err)
				}
				requireBits(t, fmt.Sprintf("k=%d clean step after the faults vs a fresh engine", k), wantFresh, got)
			}
		})
	}
}

// checkEpilogue steps src at width k with an epilogue that records each
// slot's runs and range, and fails on a grid that does not tile [0, n)
// in slot order or a slot run other than once. Every call must see its
// own rows final; with outside set, it also reports whether any call
// saw a row outside its own range not yet final.
func checkEpilogue(t *testing.T, e spmv.Stepper, src, want []float64, k, slots int, permit, outside bool) (early bool) {
	t.Helper()
	n := e.NumVertices()
	dst := make([]float64, n*k)
	for i := range dst {
		dst[i] = math.NaN() // a row not yet written is not final
	}
	ran := make([]int32, slots)
	bounds := make([][2]int, slots)
	var ownEarly, otherEarly atomic.Bool
	final := func(lo, hi int) bool {
		for i := lo * k; i < hi*k; i++ {
			if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
				return false
			}
		}
		return true
	}
	err := e.StepCtx(nil, src, dst, k, spmv.Epilogue{Stream: permit, Run: func(slot, lo, hi int) {
		if slot < 0 || slot >= slots {
			panic(fmt.Sprintf("epilogue slot %d outside [0, %d)", slot, slots))
		}
		atomic.AddInt32(&ran[slot], 1)
		bounds[slot] = [2]int{lo, hi}
		if !final(lo, hi) {
			ownEarly.Store(true)
		}
		if outside && (!final(0, lo) || !final(hi, n)) {
			otherEarly.Store(true)
		}
	}})
	if err != nil {
		t.Fatalf("k=%d: %v", k, err)
	}
	if ownEarly.Load() {
		t.Fatalf("k=%d permit=%v: an epilogue saw its own rows before they were final", k, permit)
	}
	next := 0
	for p := 0; p < slots; p++ {
		if ran[p] != 1 || bounds[p][0] != next || bounds[p][1] < bounds[p][0] {
			t.Fatalf("k=%d: slot %d ran %d times over [%d, %d), next row %d", k, p, ran[p], bounds[p][0], bounds[p][1], next)
		}
		next = bounds[p][1]
	}
	if next != n {
		t.Fatalf("k=%d: the slots end at row %d of %d", k, next, n)
	}
	requireBits(t, fmt.Sprintf("k=%d epilogue step", k), want, dst)
	return otherEarly.Load()
}

// integerLanes is k interleaved vectors of small integers, distinct per
// lane, so that every sum of them is exact in any order.
func integerLanes(n, k int) []float64 {
	x := make([]float64, n*k)
	for i := range x {
		x[i] = float64((i*7 + i/k*3) % 11)
	}
	return x
}

// lanewiseSteps is Step run on each lane of the interleaved src.
func lanewiseSteps(e spmv.Stepper, src []float64, k int) []float64 {
	n := e.NumVertices()
	lane, out := make([]float64, n), make([]float64, n)
	all := make([]float64, n*k)
	for j := 0; j < k; j++ {
		for v := 0; v < n; v++ {
			lane[v] = src[v*k+j]
		}
		e.Step(lane, out)
		for v := 0; v < n; v++ {
			all[v*k+j] = out[v]
		}
	}
	return all
}

func requireBits(t *testing.T, label string, want, got []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s: element %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}
