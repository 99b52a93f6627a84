package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"ihtl/internal/faultinject"
	"ihtl/internal/sched"
	"ihtl/internal/spmv"
	"ihtl/internal/xrand"
)

// sparseLaneInput is a K-lane integer vector of which about one row in
// every is all +0.0 (every == 0: every row), and the set of the others.
// Every fifth non-zero row is -0.0 in all lanes but one: not +0.0, so
// active. With extra, the set also names every third all-zero row — a
// superset, which the entry allows.
func sparseLaneInput(seed uint64, n, k, every int, extra bool) ([]float64, spmv.RowSet) {
	rng := xrand.New(seed)
	src := make([]float64, n*k)
	active := spmv.NewRowSet(n)
	for v := 0; v < n; v++ {
		if every == 0 || rng.Uint64n(uint64(every)) != 0 {
			if extra && v%3 == 0 {
				active.Add(v)
			}
			continue
		}
		active.Add(v)
		row := src[v*k : v*k+k]
		for j := range row {
			row[j] = float64(1 + rng.Uint64n(7))
			if v%5 == 0 && j > 0 {
				row[j] = math.Copysign(0, -1)
			}
		}
	}
	return src, active
}

// activeRowsHonoured says which rows of the option matrix have the
// active-row kernels: the flat fused pipeline with a pull sparse kernel.
func activeRowsHonoured(o EngineOptions) bool {
	return !o.Phased && o.BlockEncoding != EncodingVarint && o.SparseKernel != SparsePB
}

// wantTouched is the set an active-row step must report: every hub, and
// every sparse row with a source named by active.
func wantTouched(ih *IHTL, active spmv.RowSet) spmv.RowSet {
	want := spmv.NewRowSet(ih.NumV)
	want.AddRange(0, ih.NumHubs)
	sp := &ih.Sparse
	for i := 0; i+1 < len(sp.Index); i++ {
		for _, u := range sp.Srcs[sp.Index[i]:sp.Index[i+1]] {
			if active.Has(int(u)) {
				want.Add(sp.DestLo + i)
				break
			}
		}
	}
	return want
}

// TestStepBatchActiveMatchesDense is the kernel-level differential of
// the active-row entry: over random vectors with random all-zero rows,
// every row it reports touched holds the dense StepBatch's bits, every
// other row is left as it was (and is all +0.0 in the dense result), and
// touched is exactly the hubs plus the sparse rows with an active
// in-neighbour. Integer lanes keep the sums schedule-independent, so the
// table holds under stealing too.
func TestStepBatchActiveMatchesDense(t *testing.T) {
	const sentinel = -7.5
	for name, g := range diffGraphs(t) {
		ih, err := Build(g, Params{HubsPerBlock: 64})
		if err != nil {
			t.Fatal(err)
		}
		n := ih.NumV
		for _, workers := range []int{1, 2, 3} {
			pool := sched.NewPool(workers)
			defer pool.Close()
			for _, opt := range optionMatrix(t, func(o EngineOptions) bool {
				return activeRowsHonoured(o) && o.Health == spmv.HealthPolicy{}
			}) {
				e, err := NewEngineOpts(ih, pool, opt)
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []int{1, 2, 5, 8} {
					for _, every := range []int{0, 1000, 40, 2, 1} {
						for _, extra := range []bool{false, true} {
							label := fmt.Sprintf("%s/w%d/%+v/k%d/1in%d/extra=%v", name, workers, opt, k, every, extra)
							src, active := sparseLaneInput(uint64(17*k+every), n, k, every, extra)
							want := make([]float64, n*k)
							e.StepBatch(src, want, k)

							got := make([]float64, n*k)
							for i := range got {
								got[i] = sentinel
							}
							touched := spmv.NewRowSet(n)
							touched.AddRange(0, n) // must be rewritten, not added to
							covered := make([]int, workers)
							honoured, err := e.StepBatchActiveCtx(context.Background(), src, got, k, active, touched, func(w, lo, hi int) {
								covered[w] += hi - lo
							})
							if err != nil || !honoured {
								t.Fatalf("%s: honoured=%v err=%v", label, honoured, err)
							}
							total := 0
							for _, c := range covered {
								total += c
							}
							if total != n {
								t.Fatalf("%s: epilogue covered %v of %d rows", label, covered, n)
							}
							wt := wantTouched(ih, active)
							for v := 0; v < n; v++ {
								if touched.Has(v) != wt.Has(v) {
									t.Fatalf("%s: row %d touched=%v, want %v", label, v, touched.Has(v), wt.Has(v))
								}
								for j := 0; j < k; j++ {
									g, w := got[v*k+j], want[v*k+j]
									switch {
									case touched.Has(v) && math.Float64bits(g) != math.Float64bits(w):
										t.Fatalf("%s: touched row %d lane %d = %v, dense %v", label, v, j, g, w)
									case !touched.Has(v) && g != sentinel:
										t.Fatalf("%s: untouched row %d lane %d was written (%v)", label, v, j, g)
									case !touched.Has(v) && math.Float64bits(w) != 0:
										t.Fatalf("%s: untouched row %d lane %d is %v in the dense result", label, v, j, w)
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestStepBatchActiveNotHonoured pins the configurations without
// active-row kernels — every other row of the option matrix, and the
// sharded engine whatever its options: they answer false, step nothing,
// and leave both the result and the set alone for the caller's dense
// step.
func TestStepBatchActiveNotHonoured(t *testing.T) {
	g := diffGraphs(t)["rmat"]
	ih, err := Build(g, Params{HubsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
	}
	n, k := ih.NumV, 3
	src, active := sparseLaneInput(5, n, k, 40, false)
	sg, err := BuildSharded(g, Params{HubsPerBlock: 64}, testPool, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range optionMatrix(t, nil) {
		se, err := NewShardedEngineOpts(sg, testPool, opt)
		if err != nil {
			t.Fatal(err)
		}
		refusing := []widthStepper{se}
		if !activeRowsHonoured(opt) {
			e, err := NewEngineOpts(ih, testPool, opt)
			if err != nil {
				t.Fatal(err)
			}
			refusing = append(refusing, e)
		}
		for _, e := range refusing {
			dst := make([]float64, n*k)
			touched := spmv.NewRowSet(n)
			ran := false
			honoured, err := e.StepBatchActiveCtx(nil, src, dst, k, active, touched, func(w, lo, hi int) { ran = true })
			if honoured || err != nil || ran {
				t.Fatalf("%T %+v: honoured=%v err=%v epilogue ran=%v, want a refusal", e, opt, honoured, err, ran)
			}
			if touched.Count() != 0 || !spmv.SkipZeroLanes(dst) {
				t.Fatalf("%T %+v: a refused step wrote its outputs", e, opt)
			}
		}
	}
}

// TestStepBatchActiveFaultThenClean aborts active-row steps — a
// cancelled context, then a panic injected at each of the fused worker's
// sites — and requires the next active step and the next dense step on
// the same engine to be bit-identical to a fresh engine's: no staged
// set, buffer lane or barrier arrival survives the abort.
func TestStepBatchActiveFaultThenClean(t *testing.T) {
	e, _ := faultTestEngine(t, EngineOptions{StaticFlipped: true})
	n, k := e.NumVertices(), 4
	src, active := sparseLaneInput(23, n, k, 30, false)
	want := make([]float64, n*k)
	e.StepBatch(src, want, k)
	wt := wantTouched(e.Graph(), active)

	requireClean := func(label string) {
		t.Helper()
		got := make([]float64, n*k)
		touched := spmv.NewRowSet(n)
		if ok, err := e.StepBatchActiveCtx(context.Background(), src, got, k, active, touched, nil); !ok || err != nil {
			t.Fatalf("%s: clean active step: honoured=%v err=%v", label, ok, err)
		}
		for v := 0; v < n; v++ {
			if touched.Has(v) != wt.Has(v) {
				t.Fatalf("%s: row %d touched=%v, want %v", label, v, touched.Has(v), wt.Has(v))
			}
			if touched.Has(v) {
				requireBitIdentical(t, label, want[v*k:v*k+k], got[v*k:v*k+k])
			}
		}
		dense := make([]float64, n*k)
		if err := e.StepCtx(context.Background(), src, dense, k, spmv.Epilogue{}); err != nil {
			t.Fatalf("%s: clean dense step: %v", label, err)
		}
		requireBitIdentical(t, label+" dense", want, dense)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.StepBatchActiveCtx(cancelled, src, make([]float64, n*k), k, active, spmv.NewRowSet(n), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled step: err = %v", err)
	}
	requireClean("after cancel")

	for _, at := range []struct {
		site  faultinject.Site
		after int64
	}{
		{faultinject.SiteFlippedTask, 0}, {faultinject.SiteFlippedTask, 2},
		{faultinject.SiteMergeBlock, 0},
		{faultinject.SiteSparsePart, 0}, {faultinject.SiteSparsePart, 2},
	} {
		faultinject.Activate(faultinject.NewPlan(faultinject.Rule{Site: at.site, Kind: faultinject.Panic, After: at.after, Times: 1}))
		_, err := e.StepBatchActiveCtx(context.Background(), src, make([]float64, n*k), k, active, spmv.NewRowSet(n), func(w, lo, hi int) {})
		faultinject.Deactivate()
		var perr *sched.PanicError
		if !errors.As(err, &perr) {
			t.Fatalf("%v after %d: err = %v, want a PanicError", at.site, at.after, err)
		}
		requireClean(fmt.Sprintf("after panic at %v+%d", at.site, at.after))
	}
}
