package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"ihtl/internal/faultinject"
	"ihtl/internal/graph"
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
// active-row kernels: the flat ones.
func activeRowsHonoured(o EngineOptions) bool {
	return o.BlockEncoding != EncodingVarint
}

// wantTouched is the set an active-row step must report: every row, hub
// or sparse, with an in-neighbour named by active.
func wantTouched(ih *IHTL, active spmv.RowSet) spmv.RowSet {
	want := spmv.NewRowSet(ih.NumV)
	for b := range ih.Blocks {
		fb := &ih.Blocks[b]
		for s := 0; s+1 < len(fb.Index); s++ {
			if active.Has(s) {
				for _, d := range fb.Dsts[fb.Index[s]:fb.Index[s+1]] {
					want.Add(int(d))
				}
			}
		}
	}
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

// activeSentinel is what every lane of an active-row step's result holds
// before the step: a row the step does not write keeps it.
const activeSentinel = -7.5

// stepActive runs one active-row step of e over src, into a result of
// sentinels and a touched set that starts full (it must be rewritten,
// not added to), and fails the test unless the step was honoured.
func stepActive(t *testing.T, label string, e *Engine, src []float64, active spmv.RowSet, k int, epi func(w, lo, hi int)) (got []float64, touched spmv.RowSet) {
	t.Helper()
	n := e.NumVertices()
	got = make([]float64, n*k)
	for i := range got {
		got[i] = activeSentinel
	}
	touched = spmv.NewRowSet(n)
	for r := 0; r < n; r++ {
		touched.Add(r)
	}
	if honoured, err := e.StepBatchActiveCtx(context.Background(), src, got, k, active, touched, epi); err != nil || !honoured {
		t.Fatalf("%s: honoured=%v err=%v", label, honoured, err)
	}
	return got, touched
}

// requireActiveRows checks an active-row step's result against the
// dense result want: touched is exactly wt, every touched row holds
// want's bits, and every other row kept the sentinel and is all +0.0 in
// want.
func requireActiveRows(t *testing.T, label string, wt, touched spmv.RowSet, got, want []float64, k int) {
	t.Helper()
	for v := 0; v < len(got)/k; v++ {
		if touched.Has(v) != wt.Has(v) {
			t.Fatalf("%s: row %d touched=%v, want %v", label, v, touched.Has(v), wt.Has(v))
		}
		for j := 0; j < k; j++ {
			g, w := got[v*k+j], want[v*k+j]
			switch {
			case touched.Has(v) && math.Float64bits(g) != math.Float64bits(w):
				t.Fatalf("%s: touched row %d lane %d = %v, dense %v", label, v, j, g, w)
			case !touched.Has(v) && g != activeSentinel:
				t.Fatalf("%s: untouched row %d lane %d was written (%v)", label, v, j, g)
			case !touched.Has(v) && math.Float64bits(w) != 0:
				t.Fatalf("%s: untouched row %d lane %d is %v in the dense result", label, v, j, w)
			}
		}
	}
}

// oddBlockParams builds B = 40 hubs a block — not a whole number of
// hub-bit words, so neighbouring blocks' hubs share words of touched
// while their merges run concurrently with each other's pushes — with a
// block threshold low enough to admit at least three blocks.
var oddBlockParams = Params{HubsPerBlock: 40, FVThreshold: 0.01}

// oddBlockIHTL builds g with oddBlockParams.
func oddBlockIHTL(t *testing.T, g *graph.Graph) *IHTL {
	t.Helper()
	ih, err := Build(g, oddBlockParams)
	if err != nil {
		t.Fatal(err)
	}
	if len(ih.Blocks) < 3 {
		t.Fatalf("odd-B build has %d flipped blocks, want ≥ 3", len(ih.Blocks))
	}
	return ih
}

// TestStepBatchActiveNoHubReached steps an active set none of whose rows
// has an edge into a flipped block: no merge has a hub to write, so
// every hub row keeps the sentinel and none is touched, while the sparse
// rows the set reaches are stepped as usual.
func TestStepBatchActiveNoHubReached(t *testing.T) {
	pool := sched.NewPool(3)
	defer pool.Close()
	for name, g := range diffGraphs(t) {
		ih, err := Build(g, Params{HubsPerBlock: 40})
		if err != nil {
			t.Fatal(err)
		}
		n, k := ih.NumV, 4
		src, active := sparseLaneInput(41, n, k, 2, false)
		for s := 0; s < n; s++ {
			for b := range ih.Blocks {
				if idx := ih.Blocks[b].Index; s+1 < len(idx) && idx[s+1] > idx[s] {
					active[s>>6] &^= 1 << (uint(s) & 63)
					clear(src[s*k : s*k+k])
				}
			}
		}
		if active.Count() == 0 {
			continue // every row pushes into a hub
		}
		e, err := NewEngineOpts(ih, pool, EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, n*k)
		e.StepBatch(src, want, k)
		got, touched := stepActive(t, name, e, src, active, k, nil)
		requireActiveRows(t, name, wantTouched(ih, active), touched, got, want, k)
		for h := 0; h < ih.NumHubs; h++ {
			if touched.Has(h) {
				t.Fatalf("%s: hub %d touched by an active set with no flipped edge", name, h)
			}
		}
		if touched.Count() == 0 {
			t.Fatalf("%s: the active set reached no sparse row either", name)
		}
	}
}

// TestStepBatchActiveEmptyBlock steps an engine one of whose flipped
// blocks has no edges at all (the odd-B build with block 1's edges taken
// out, a graph in which those hubs have no in-neighbour): a dense step
// zeroes its hubs, an active-row step leaves them unwritten and
// untouched.
func TestStepBatchActiveEmptyBlock(t *testing.T) {
	pool := sched.NewPool(3)
	defer pool.Close()
	ih := oddBlockIHTL(t, diffGraphs(t)["rmat"])
	fb := &ih.Blocks[1]
	fb.Index = make([]int64, len(fb.Index))
	fb.Dsts = fb.Dsts[:0]
	fb.Enc, fb.Sources = nil, 0
	n := ih.NumV
	e, err := NewEngine(ih, pool)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.emptyBlocks) != 1 || e.emptyBlocks[0] != 1 {
		t.Fatalf("empty blocks %v, want [1]", e.emptyBlocks)
	}
	for _, k := range []int{1, 8} {
		label := fmt.Sprintf("k%d", k)
		src, active := sparseLaneInput(uint64(53+k), n, k, 1, false)
		want := make([]float64, n*k)
		e.StepBatch(src, want, k)
		if !spmv.SkipZeroLanes(want[fb.HubLo*k : fb.HubHi*k]) {
			t.Fatalf("%s: the dense step left the empty block's hubs non-zero", label)
		}
		got, touched := stepActive(t, label, e, src, active, k, nil)
		requireActiveRows(t, label, wantTouched(ih, active), touched, got, want, k)
	}
}

// TestStepBatchActiveAlternatingDense steps one engine through dense and
// active-row steps in turn, at changing widths, and requires each step
// to equal the same step on a fresh engine — the result bit for bit,
// sentinels included, and the touched set — so that neither kind leaves
// a buffer lane, dirty range or hub bit behind for the other.
func TestStepBatchActiveAlternatingDense(t *testing.T) {
	pool := sched.NewPool(3)
	defer pool.Close()
	ih := oddBlockIHTL(t, diffGraphs(t)["web"])
	n := ih.NumV
	e, err := NewEngineOpts(ih, pool, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range []struct {
		active bool
		k      int
	}{{false, 8}, {true, 8}, {true, 8}, {false, 8}, {true, 3}, {false, 1}, {true, 1}, {true, 8}, {false, 3}, {true, 3}} {
		label := fmt.Sprintf("step %d (active=%v k=%d)", i, st.active, st.k)
		src, active := sparseLaneInput(uint64(71+i), n, st.k, 20, i%2 == 0)
		fresh, err := NewEngineOpts(ih, pool, EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !st.active {
			got, want := make([]float64, n*st.k), make([]float64, n*st.k)
			e.StepBatch(src, got, st.k)
			fresh.StepBatch(src, want, st.k)
			requireBitIdentical(t, label, want, got)
			continue
		}
		got, touched := stepActive(t, label, e, src, active, st.k, nil)
		want, wantTouched := stepActive(t, label+" fresh", fresh, src, active, st.k, nil)
		requireBitIdentical(t, label, want, got)
		for v := 0; v < n; v++ {
			if touched.Has(v) != wantTouched.Has(v) {
				t.Fatalf("%s: row %d touched=%v, fresh engine %v", label, v, touched.Has(v), wantTouched.Has(v))
			}
		}
	}
}

// TestStepBatchActiveNotHonoured pins the configurations without
// active-row kernels — every other row of the option matrix: they
// answer false, step nothing, and leave both the result and the set
// alone for the caller's dense step.
func TestStepBatchActiveNotHonoured(t *testing.T) {
	g := diffGraphs(t)["rmat"]
	ih, err := Build(g, Params{HubsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
	}
	n, k := ih.NumV, 3
	src, active := sparseLaneInput(5, n, k, 40, false)
	for _, opt := range optionMatrix(t, nil) {
		if activeRowsHonoured(opt) {
			continue
		}
		e, err := NewEngineOpts(ih, testPool, opt)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]float64, n*k)
		touched := spmv.NewRowSet(n)
		ran := false
		honoured, err := e.StepBatchActiveCtx(nil, src, dst, k, active, touched, func(w, lo, hi int) { ran = true })
		if honoured || err != nil || ran {
			t.Fatalf("%+v: honoured=%v err=%v epilogue ran=%v, want a refusal", opt, honoured, err, ran)
		}
		if touched.Count() != 0 || !spmv.SkipZeroLanes(dst) {
			t.Fatalf("%+v: a refused step wrote its outputs", opt)
		}
	}
}

// TestStepBatchActiveFaultThenClean aborts active-row steps — a
// cancelled context, then a panic injected at each of the fused worker's
// sites — and requires the next active step and the next dense step on
// the same engine to be bit-identical to a fresh engine's: no staged
// set, buffer lane, hub bit or barrier arrival survives the abort.
func TestStepBatchActiveFaultThenClean(t *testing.T) {
	e, _ := faultTestEngine(t, EngineOptions{})
	n, k := e.NumVertices(), 4
	src, active := sparseLaneInput(23, n, k, 30, false)
	want := make([]float64, n*k)
	e.StepBatch(src, want, k)
	wt := wantTouched(e.ih, active)

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

	// After the pushes, before a merge: on an engine of eight blocks, an
	// abort at the first and at the last block's merge of a step from
	// every row leaves hub bits set in every block no merge reached. The
	// next clean active step, from a third of the rows, must equal a
	// fresh engine's — a stale bit would write and report a hub it does
	// not reach — so recoverState cleared them.
	ih := oddBlockIHTL(t, diffGraphs(t)["rmat"])
	oe, err := NewEngineOpts(ih, testPool, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewEngineOpts(ih, testPool, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	osrc, oactive := sparseLaneInput(29, ih.NumV, k, 3, false)
	allSrc, allActive := sparseLaneInput(29, ih.NumV, k, 1, false)
	owant, owantTouched := stepActive(t, "fresh engine", fresh, osrc, oactive, k, nil)
	for _, after := range []int64{0, int64(len(ih.Blocks) - 1)} {
		label := fmt.Sprintf("after panic at merge %d of %d", after+1, len(ih.Blocks))
		faultinject.Activate(faultinject.NewPlan(faultinject.Rule{Site: faultinject.SiteMergeBlock, Kind: faultinject.Panic, After: after, Times: 1}))
		_, err := oe.StepBatchActiveCtx(context.Background(), allSrc, make([]float64, ih.NumV*k), k, allActive, spmv.NewRowSet(ih.NumV), nil)
		faultinject.Deactivate()
		var perr *sched.PanicError
		if !errors.As(err, &perr) {
			t.Fatalf("%s: err = %v, want a PanicError", label, err)
		}
		got, touched := stepActive(t, label, oe, osrc, oactive, k, nil)
		requireBitIdentical(t, label, owant, got)
		for v := 0; v < ih.NumV; v++ {
			if touched.Has(v) != owantTouched.Has(v) {
				t.Fatalf("%s: row %d touched=%v, fresh engine %v", label, v, touched.Has(v), owantTouched.Has(v))
			}
		}
	}
}
