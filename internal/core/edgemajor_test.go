package core

import (
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

// synthRows is one block's adjacency by row; rows it does not name are
// empty, which is how the fixtures below get their holes.
type synthRows map[int][]graph.VID

// synthIHTL assembles an iHTL graph by hand (identity relabeling):
// flipped[b] are block b's push rows → hub destinations, sparse the
// non-hub destination rows (relative to numHubs) → sources. The
// fixtures need block shapes no generator produces on demand — a
// 70 000-row hole, a single-edge block, an all-empty block, long rows
// inside a short-row sparse block — and Build's output is exactly this
// struct.
func synthIHTL(numV, numPush, hubsPerBlock int, flipped []synthRows, sparse synthRows) *IHTL {
	numHubs := hubsPerBlock * len(flipped)
	ih := &IHTL{
		NumV: numV, NumHubs: numHubs, NumVWEH: numPush - numHubs, NumFV: numV - numPush,
		HubsPerBlock: hubsPerBlock,
		NewID:        make([]graph.VID, numV), OldID: make([]graph.VID, numV),
	}
	for v := range ih.NewID {
		ih.NewID[v], ih.OldID[v] = graph.VID(v), graph.VID(v)
	}
	flatten := func(rows synthRows, n int) ([]int64, []graph.VID) {
		index := make([]int64, n+1)
		var adj []graph.VID
		for r := 0; r < n; r++ {
			adj = append(adj, rows[r]...)
			index[r+1] = int64(len(adj))
		}
		return index, adj
	}
	for b, rows := range flipped {
		fb := FlippedBlock{HubLo: b * hubsPerBlock, HubHi: (b + 1) * hubsPerBlock, Sources: len(rows)}
		fb.Index, fb.Dsts = flatten(rows, numPush)
		ih.NumE += fb.NumEdges()
		ih.Blocks = append(ih.Blocks, fb)
	}
	ih.Sparse.DestLo = numHubs
	ih.Sparse.Index, ih.Sparse.Srcs = flatten(sparse, numV-numHubs)
	ih.NumE += ih.Sparse.NumEdges()
	return ih
}

// refStep is the serial oracle over an iHTL's own topology: every
// destination summed from +0.0 in ascending source order — the order
// every engine kernel promises.
func refStep(ih *IHTL, src []float64) []float64 {
	dst := make([]float64, ih.NumV)
	for b := range ih.Blocks {
		fb := &ih.Blocks[b]
		for s := 0; s < len(fb.Index)-1; s++ {
			for _, d := range fb.Dsts[fb.Index[s]:fb.Index[s+1]] {
				dst[d] += src[s]
			}
		}
	}
	sp := &ih.Sparse
	for r := 0; r < len(sp.Index)-1; r++ {
		for _, s := range sp.Srcs[sp.Index[r]:sp.Index[r+1]] {
			dst[sp.DestLo+r] += src[s]
		}
	}
	return dst
}

// shortRows fills rows [lo, hi) of a block with 1-3 ascending
// neighbours drawn from [nbrLo, nbrHi), leaving every fifth row empty.
func shortRows(rows synthRows, rng *xrand.Xoshiro256, lo, hi, nbrLo, nbrHi int) {
	for r := lo; r < hi; r++ {
		if r%5 == 4 {
			continue
		}
		deg := 1 + int(rng.Uint64n(3))
		span := (nbrHi - nbrLo) / deg
		for k := 0; k < deg; k++ {
			rows[r] = append(rows[r], graph.VID(nbrLo+k*span+int(rng.Uint64n(uint64(span)))))
		}
	}
}

// holesIHTL is the fixture of the row-gap satellite and of the layout
// oracle: four flipped blocks — short rows around a 300-row and a
// 70 000-row hole, a single edge, no edge at all, long rows (CSR by
// shape) — and a short-row sparse block with the same two holes and
// four 90-edge rows that sit first, adjacent, and last.
func holesIHTL() *IHTL {
	const (
		hubsPerBlock = 4
		numPush      = 71000
		numV         = 71500
	)
	rng := xrand.New(20260)
	b0 := synthRows{}
	shortRows(b0, rng, 0, 100, 0, 4)
	shortRows(b0, rng, 400, 500, 0, 4) // rows 100-399 empty
	shortRows(b0, rng, 70500, numPush, 0, 4)
	b0[99] = []graph.VID{1} // the holes start right after an edge
	b0[499] = []graph.VID{2}
	b1 := synthRows{40000: {5}}
	b2 := synthRows{}
	b3 := synthRows{}
	for r := 0; r < numPush; r++ {
		b3[r] = []graph.VID{12, 12, 13, 13, 14, 15}
	}

	numHubs := 4 * hubsPerBlock
	n := numV - numHubs
	sp := synthRows{}
	shortRows(sp, rng, 1, 100, 0, numV)
	shortRows(sp, rng, 400, 500, 0, numV)
	shortRows(sp, rng, 70500, n-1, 0, numV)
	sp[99], sp[499] = []graph.VID{7}, []graph.VID{70999}
	for _, r := range []int{0, 450, 451, n - 1} { // long rows
		sp[r] = nil
		for k := 0; k < 90; k++ {
			sp[r] = append(sp[r], graph.VID(k*700+r%7))
		}
	}
	return synthIHTL(numV, numPush, hubsPerBlock, []synthRows{b0, b1, b2, b3}, sp)
}

// longestHole returns the longest run of empty rows between two edges.
func longestHole(index []int64) (longest, second int) {
	run, seen := 0, false
	for r := 0; r < len(index)-1; r++ {
		if index[r] == index[r+1] {
			run++
			continue
		}
		if seen && run > longest {
			longest, second = run, longest
		} else if seen && run > second {
			second = run
		}
		run, seen = 0, true
	}
	return longest, second
}

// specialVec mixes small integers with the values the skip-free
// edge-major loop must be transparent to: +0.0, -0.0, NaN, +Inf, -Inf.
func specialVec(seed uint64, n int) []float64 {
	rng := xrand.New(seed)
	v := make([]float64, n)
	for i := range v {
		switch rng.Uint64n(16) {
		case 0, 1, 2:
			v[i] = 0
		case 3, 4:
			v[i] = math.Copysign(0, -1)
		case 5:
			v[i] = math.Inf(1)
		case 6:
			v[i] = math.Inf(-1)
		case 7:
			if rng.Uint64n(8) == 0 { // rare, or every sum is NaN
				v[i] = math.NaN()
			}
		default:
			v[i] = float64(int64(rng.Uint64n(9)) - 4)
		}
	}
	return v
}

// requireSameBits is requireBitIdentical for vectors that may hold
// NaN: every element must match bit for bit — signed zeros and signed
// infinities included — except that a NaN matches any NaN. IEEE 754
// leaves the payload and sign of Inf-Inf and of NaN+NaN to the
// implementation (on amd64 they depend on which operand the compiler
// put first), so they are not part of the engines' contract.
func requireSameBits(t *testing.T, label string, want, got []float64) {
	t.Helper()
	for v := range want {
		if math.Float64bits(want[v]) != math.Float64bits(got[v]) && !(math.IsNaN(want[v]) && math.IsNaN(got[v])) {
			t.Fatalf("%s: vertex %d: got %v want %v (bits %x vs %x)",
				label, v, got[v], want[v], math.Float64bits(got[v]), math.Float64bits(want[v]))
		}
	}
}

// TestHolesFixtureShape pins what the fixture is for, so an edit cannot
// quietly lose the cases: both holes in the flipped AND the sparse
// block, gaps that need the escape, and the sparse block's long rows.
func TestHolesFixtureShape(t *testing.T) {
	ih := holesIHTL()
	for name, index := range map[string][]int64{"flipped[0]": ih.Blocks[0].Index, "sparse": ih.Sparse.Index} {
		if a, b := longestHole(index); a != 70000 || b != 300 {
			t.Errorf("%s: longest holes %d and %d rows, want 70000 and 300", name, a, b)
		}
		if pickLayout(index) != LayoutEdgeMajor {
			t.Errorf("%s: not a short-row block", name)
		}
	}
	if got := ih.Blocks[1].NumEdges(); got != 1 {
		t.Errorf("flipped[1] has %d edges, want 1", got)
	}
	if got := ih.Blocks[2].NumEdges(); got != 0 {
		t.Errorf("flipped[2] has %d edges, want 0", got)
	}
	if pickLayout(ih.Blocks[3].Index) != LayoutCSR {
		t.Error("flipped[3] (mean row 6) should stay CSR by shape")
	}
	long := 0
	for r := 0; r < len(ih.Sparse.Index)-1; r++ {
		if ih.Sparse.Index[r+1]-ih.Sparse.Index[r] == 90 {
			long++
		}
	}
	if long != 4 {
		t.Errorf("sparse block has %d rows of 90 edges, want 4", long)
	}
}

// TestAdvStream checks the stream against its definition on the
// fixture — every edge's row recovered by the kernels' own rule, the
// long gaps stored as the escape — and that a parallel build, and a
// build cut at any byte, equal the one-range build.
func TestAdvStream(t *testing.T) {
	ih := holesIHTL()
	for name, index := range map[string][]int64{"flipped[0]": ih.Blocks[0].Index, "flipped[1]": ih.Blocks[1].Index, "sparse": ih.Sparse.Index} {
		edges := index[len(index)-1]
		adv := make([]uint8, (edges+1)/2)
		fillAdv(adv, index, 0, edges)
		row, escapes := 0, 0
		for i := 0; i < int(edges); i++ {
			if advAt(adv, i) == advEscape {
				escapes++
			}
			row = advance(index, i, row, advAt(adv, i))
			if index[row] > int64(i) || int64(i) >= index[row+1] {
				t.Fatalf("%s: edge %d decoded to row %d = [%d, %d)", name, i, row, index[row], index[row+1])
			}
		}
		if want := map[string]int{"flipped[0]": 2, "flipped[1]": 1, "sparse": 2}[name]; escapes != want {
			t.Errorf("%s: %d escapes, want %d", name, escapes, want)
		}
		for _, w := range []int{2, 3, 7} {
			pool := sched.NewPool(w)
			got, err := buildAdv(pool, index)
			pool.Close()
			if err != nil {
				t.Fatalf("%s: %d-worker build: %v", name, w, err)
			}
			if string(got) != string(adv) {
				t.Errorf("%s: %d-worker build differs from the sequential one", name, w)
			}
		}
		for cut := int64(0); cut <= edges; cut += 2 * (1 + edges/97) {
			got := make([]uint8, len(adv))
			fillAdv(got, index, cut, edges)
			fillAdv(got, index, 0, cut)
			if string(got) != string(adv) {
				t.Fatalf("%s: build cut at edge %d differs", name, cut)
			}
		}
	}
}

// TestRowOfEdgeFrom checks the galloping search from every admissible
// starting row against the definition: on a small index, and on one
// whose holes of 49, 100 and 1000 rows take the gallop through several
// doublings, into the bisection, and (the last hole, from rows near its
// start) up against the end of the index.
func TestRowOfEdgeFrom(t *testing.T) {
	holes := []int64{0}
	for _, gap := range []int{0, 49, 1, 100, 0, 1000} {
		for range gap {
			holes = append(holes, holes[len(holes)-1])
		}
		holes = append(holes, holes[len(holes)-1]+2)
	}
	for _, index := range [][]int64{
		{0, 0, 2, 2, 2, 3, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 8, 8, 9, 9, 9},
		holes,
	} {
		for e := int64(0); e < index[len(index)-1]; e++ {
			want := 0
			for index[want+1] <= e {
				want++
			}
			for from := 0; from <= want; from++ {
				if got := rowOfEdgeFrom(index, e, from); got != want {
					t.Errorf("%d rows: rowOfEdgeFrom(e=%d, from=%d) = %d, want %d", len(index)-1, e, from, got, want)
				}
			}
		}
	}
}

// TestEdgeMajorKernelsEveryRange runs both kernels from EVERY starting
// row of a small block with holes — so tasks that begin right after
// empty rows, inside a hole, on either side of a gap that needs the
// escape, on a byte's first or second edge — to a spread of end rows,
// against the CSR kernels, on a vector with signed zeros, NaN and
// infinities. The row differences 14, 15 and 16 straddle the escape
// value; 300 is a hole the gallop has to cross. The pull runs once per
// body of its pair loop (asmArms).
func TestEdgeMajorKernelsEveryRange(t *testing.T) {
	const rows, hubs = 420, 3
	rng := xrand.New(5)
	fr, sr := synthRows{}, synthRows{}
	for _, r := range []int{0, 1, 2, 5, 6, 20, 35, 51, 52, 80, 380, 419} {
		fr[r] = []graph.VID{graph.VID(rng.Uint64n(hubs))}
		sr[r] = []graph.VID{graph.VID(rng.Uint64n(rows))}
		if r%2 == 0 {
			fr[r] = append(fr[r], hubs-1)
			sr[r] = append(sr[r], rows-1)
		}
	}
	ih := synthIHTL(rows+hubs, rows, hubs, []synthRows{fr}, sr)
	fb, sp := &ih.Blocks[0], &ih.Sparse
	fadv := make([]uint8, (fb.NumEdges()+1)/2)
	fillAdv(fadv, fb.Index, 0, fb.NumEdges())
	sadv := make([]uint8, (sp.NumEdges()+1)/2)
	fillAdv(sadv, sp.Index, 0, sp.NumEdges())
	if a, b, c := advAt(fadv, 8), advAt(fadv, 10), advAt(fadv, 11); a != 14 || b != advEscape || c != advEscape {
		t.Fatalf("adv at the 14/15/16-row gaps = %d %d %d", a, b, c)
	}
	e := &Engine{ih: ih, sparseBounds: []int{0, 0}} // the CSR pull reads its range from the engine

	src := specialVec(9, ih.NumV)
	wantH, gotH := make([]float64, hubs), make([]float64, hubs)
	want, got := make([]float64, ih.NumV), make([]float64, ih.NumV)
	for _, arm := range asmArms(t) {
		ForceGoTwins(arm == "go")
		for lo := 0; lo <= rows; lo++ {
			for hi := lo; hi <= rows; hi = max(hi+1+(hi-lo)/6, min(hi+1, rows)) {
				clear(wantH)
				clear(gotH)
				pushTaskFlat(&blockTask{lo: lo, hi: hi}, fb, src, wantH)
				pushTaskEdgeMajor(&blockTask{lo: lo, hi: hi, prev: rowBeforeEdge(fb.Index, fb.Index[lo])}, fb, fadv, src, gotH)
				requireSameBits(t, fmt.Sprintf("push rows [%d, %d)", lo, hi), wantH, gotH)

				for i := range got {
					want[i], got[i] = -7, -7 // rows outside [lo, hi) must stay untouched
				}
				e.sparseBounds[0], e.sparseBounds[1] = lo, hi
				e.sparsePullPart(0, src, want)
				pullRowsEdgeMajor(sp, sadv, lo, hi, rowBeforeEdge(sp.Index, sp.Index[lo]), src, got)
				requireSameBits(t, fmt.Sprintf("%s: pull rows [%d, %d)", arm, lo, hi), want, got)
			}
		}
	}
}

// layoutCase is one graph of the layout oracle: an iHTL and the oracle
// result, in iHTL ID space, for a source vector.
type layoutCase struct {
	name string
	ih   *IHTL
	want func(src []float64) []float64
}

func layoutCases(t *testing.T) []layoutCase {
	t.Helper()
	holes := holesIHTL()
	cases := []layoutCase{{"holes", holes, func(src []float64) []float64 { return refStep(holes, src) }}}
	pool := sched.NewPool(1)
	t.Cleanup(pool.Close)
	for name, g := range diffGraphs(t) {
		ih, err := Build(g, Params{HubsPerBlock: 64})
		if err != nil {
			t.Fatal(err)
		}
		pe, err := spmv.NewEngine(g, pool, spmv.Pull, spmv.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, layoutCase{name, ih, func(src []float64) []float64 {
			srcOld, dstOld, dst := make([]float64, ih.NumV), make([]float64, ih.NumV), make([]float64, ih.NumV)
			ih.PermuteToOld(src, srcOld)
			pe.Step(srcOld, dstOld)
			ih.PermuteToNew(dstOld, dst)
			return dst
		}})
	}
	return cases
}

// TestLayoutDifferential is the one oracle row for both layouts: the
// SAME graph stepped with every block forced CSR, forced edge-major and
// chosen by shape must equal the oracle (spmv.Pull on generated graphs,
// the serial sweep on the hand-built fixture) bit for bit — 1, 2 and 3
// workers, each body of the edge-major pull's pair
// loop (asmArms) — on integer, signed-zero, NaN/±Inf and all-zero
// sources.
func TestLayoutDifferential(t *testing.T) {
	arms := asmArms(t)
	for _, c := range layoutCases(t) {
		n := c.ih.NumV
		negZero := make([]float64, n)
		for i := range negZero {
			negZero[i] = math.Copysign(0, -1)
		}
		vecs := []struct {
			name string
			src  []float64
		}{
			{"integer", integerVec(31, n)},
			{"signed", signedVec(32, n)},
			{"special", specialVec(33, n)},
			{"all +0", make([]float64, n)},
			{"all -0", negZero},
		}
		wants := make([][]float64, len(vecs))
		for i, v := range vecs {
			wants[i] = c.want(v.src)
		}
		for _, workers := range []int{1, 2, 3} {
			pool := sched.NewPool(workers)
			for _, layout := range []BlockLayout{LayoutCSR, LayoutEdgeMajor, layoutByShape} {
				e, err := NewEngineOpts(c.ih, pool, EngineOptions{forceLayout: layout})
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s/w%d/%v", c.name, workers, layout)
				if layout != layoutByShape {
					for i, s := range c.ih.BlockShapes() {
						adv := e.sparseAdv
						if i < len(e.flipAdv) {
							adv = e.flipAdv[i]
						}
						if s.Edges > 0 && (adv != nil) != (layout == LayoutEdgeMajor) {
							t.Fatalf("%s: %s does not walk %v", label, s.Name, layout)
						}
					}
				}
				dst := make([]float64, n)
				for _, arm := range arms {
					ForceGoTwins(arm == "go")
					for i, v := range vecs {
						e.Step(v.src, dst)
						requireSameBits(t, label+"/"+arm+"/"+v.name, wants[i], dst)
					}
				}
			}
			pool.Close()
		}
	}
}

// TestNewEngineClosedPool: construction dispatches on the pool, so a
// closed pool must come back as an error — not as the plain dispatch's
// panic — when a block is edge-major, and still builds an engine when
// none is.
func TestNewEngineClosedPool(t *testing.T) {
	pool := sched.NewPool(2)
	pool.Close()
	if _, err := NewEngineOpts(holesIHTL(), pool, EngineOptions{}); !errors.Is(err, sched.ErrPoolClosed) {
		t.Errorf("edge-major blocks on a closed pool: err = %v, want sched.ErrPoolClosed", err)
	}
	if _, err := NewEngineOpts(holesIHTL(), pool, EngineOptions{forceLayout: LayoutCSR}); err != nil {
		t.Errorf("CSR blocks on a closed pool: %v", err)
	}
}

// TestNewEngineInjectedPanic lands a worker panic inside the adv build
// and requires it back as NewEngineOpts's error, with the pool usable
// for the next construction.
func TestNewEngineInjectedPanic(t *testing.T) {
	pool := sched.NewPool(2)
	defer pool.Close()
	plan := faultinject.NewPlan(faultinject.Rule{Site: faultinject.SiteEngineLayout, Kind: faultinject.Panic})
	faultinject.Activate(plan)
	e, err := NewEngineOpts(holesIHTL(), pool, EngineOptions{})
	faultinject.Deactivate()
	var ip *faultinject.InjectedPanic
	if e != nil || !errors.As(err, &ip) || ip.Site != faultinject.SiteEngineLayout {
		t.Fatalf("engine %v, err %v; want nil and the injected fault", e != nil, err)
	}
	if _, err := NewEngineOpts(holesIHTL(), pool, EngineOptions{}); err != nil {
		t.Fatalf("construction after the fault: %v", err)
	}
}

// TestEdgeMajorStreamsAreLive proves the forced-layout engine really
// runs the edge-major kernels: with the adv streams
// zeroed (every edge credited to its task's starting row) the result
// must change. A dispatch site that silently kept the CSR kernel would
// pass every differential above and fail here.
func TestEdgeMajorStreamsAreLive(t *testing.T) {
	// One worker: with its stream zeroed a part credits edges to rows
	// that belong to other parts, which on a wider pool is a data race
	// (the race detector caught it about one run in ten).
	pool := sched.NewPool(1)
	defer pool.Close()
	ih := holesIHTL()
	src := integerVec(8, ih.NumV)
	for i := range src {
		src[i] += float64(i % 5) // neighbouring rows must differ
	}
	want := refStep(ih, src)
	e, err := NewEngineOpts(ih, pool, EngineOptions{forceLayout: LayoutEdgeMajor})
	if err != nil {
		t.Fatal(err)
	}
	differs := func(lo, hi int) bool {
		dst := make([]float64, ih.NumV)
		e.Step(src, dst)
		for v := lo; v < hi; v++ {
			if dst[v] != want[v] {
				return true
			}
		}
		return false
	}
	if differs(0, ih.NumV) {
		t.Fatal("wrong before the streams were touched")
	}
	clear(e.flipAdv[0])
	if !differs(0, ih.HubsPerBlock) {
		t.Error("flipped push ignores its adv stream")
	}
	clear(e.sparseAdv)
	if !differs(ih.Sparse.DestLo, ih.NumV) {
		t.Error("sparse pull ignores its adv stream")
	}
}

// TestFootprintModelHandCounted checks the byte model against bytes
// counted by hand on a 6-vertex fixture, for both layouts.
//
//	hubs 0,1 (one flipped block); push sources 0..3; fringe 4,5
//	flipped rows: 0→{0,1}  1→{0}  2→{0,1}  3→{}            4 rows, 5 edges
//	sparse rows (dst 2..5): 2←{0}  3←{}  4←{2,3}  5←{1}    4 rows, 4 edges
func TestFootprintModelHandCounted(t *testing.T) {
	ih := synthIHTL(6, 4, 2,
		[]synthRows{{0: {0, 1}, 1: {0}, 2: {0, 1}}},
		synthRows{0: {0}, 2: {2, 3}, 3: {1}})
	pool := sched.NewPool(2) // W = 2 hub buffers
	defer pool.Close()
	const (
		vb = 8 // spmv.VertexBytes
		// The same under both layouts: one hub-buffer update per flipped
		// edge (5); per hub (2) a dst clear, W buffer reads and W buffer
		// resets; one random src read per sparse edge (4); one dst write
		// per sparse row (4).
		common = vb*5 + (2*2+1)*vb*2 + vb*4 + vb*4
	)
	for _, c := range []struct {
		layout         BlockLayout
		stream, vertex int64
	}{
		// CSR streams each block's index (8 B × 5 entries) and IDs
		// (4 B × 5 and × 4), and the push reads src once per ROW (4).
		{LayoutCSR, (8*5 + 4*5) + (8*5 + 4*4), vb * 4},
		// Edge-major streams the IDs and the packed adv stream (two
		// edges a byte: 3 B and 2 B) and no index; the push reads src
		// once per EDGE (5) and the pull adds into dst once per edge (4)
		// on top of the row clear.
		{LayoutEdgeMajor, (4*5 + 3) + (4*4 + 2), vb*5 + vb*4},
	} {
		e, err := NewEngineOpts(ih, pool, EngineOptions{forceLayout: c.layout})
		if err != nil {
			t.Fatal(err)
		}
		if got := e.topologyStreamBytes(); got != c.stream {
			t.Errorf("%v: topology stream %d B, hand count %d", c.layout, got, c.stream)
		}
		if got, want := e.BytesPerStep(), c.stream+c.vertex+common; got != want {
			t.Errorf("%v: BytesPerStep %d B, hand count %d", c.layout, got, want)
		}
	}
}
