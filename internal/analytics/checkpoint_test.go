package analytics

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"ihtl/internal/core"
	"ihtl/internal/faultinject"
	"ihtl/internal/graph"
	"ihtl/internal/spmv"
)

// seqStepper is a deliberately sequential, deterministic Stepper: it
// runs on the calling goroutine in vertex order, one epilogue slot, so
// two runs over the same inputs are bit-for-bit identical — the
// property the resume tests below assert about the DRIVER, isolated
// from the parallel engines' run-to-run FP reassociation.
type seqStepper struct{ g *graph.Graph }

func (s seqStepper) NumVertices() int { return s.g.NumV }

func (s seqStepper) Step(src, dst []float64) {
	for v := 0; v < s.g.NumV; v++ {
		sum := 0.0
		for _, u := range s.g.In(graph.VID(v)) {
			sum += src[u]
		}
		dst[v] = sum
	}
}

func (s seqStepper) EpiSlots() (slots int, streamed bool) { return 1, false }

func (s seqStepper) StepCtx(ctx context.Context, src, dst []float64, k int, epi spmv.Epilogue) error {
	if err := ctxErrOf(ctx); err != nil {
		return err
	}
	s.StepBatch(src, dst, k)
	if epi.Run != nil {
		epi.Run(0, 0, s.g.NumV)
	}
	return nil
}

func (s seqStepper) StepBatch(src, dst []float64, k int) {
	for v := 0; v < s.g.NumV; v++ {
		vb := v * k
		for j := 0; j < k; j++ {
			dst[vb+j] = 0
		}
		for _, u := range s.g.In(graph.VID(v)) {
			ub := int(u) * k
			for j := 0; j < k; j++ {
				dst[vb+j] += src[ub+j]
			}
		}
	}
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestCheckpointCodecRoundTrip(t *testing.T) {
	c := &Checkpoint{
		Algo: "pagerank", Iter: 17, N: 3, K: 2,
		Ranks: []float64{0.25, math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e-308},
		Aux:   []float64{0.125, math.NaN()},
	}
	var buf bytes.Buffer
	if err := EncodeCheckpoint(&buf, c); err != nil {
		t.Fatal(err)
	}
	d, err := DecodeCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d.Algo != c.Algo || d.Iter != c.Iter || d.N != c.N || d.K != c.K {
		t.Fatalf("header %q/%d/%d/%d, want %q/%d/%d/%d", d.Algo, d.Iter, d.N, d.K, c.Algo, c.Iter, c.N, c.K)
	}
	if !bitsEqual(d.Ranks, c.Ranks) || !bitsEqual(d.Aux, c.Aux) {
		t.Fatalf("vectors not bit-identical: %v / %v", d.Ranks, d.Aux)
	}
}

func TestCheckpointDecodeRejections(t *testing.T) {
	c := &Checkpoint{Algo: "pagerank", Iter: 2, N: 4, K: 1,
		Ranks: []float64{1, 2, 3, 4}, Aux: []float64{0.5}}
	var buf bytes.Buffer
	if err := EncodeCheckpoint(&buf, c); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	corrupt := func(name string, mutate func(b []byte) []byte) {
		b := mutate(append([]byte(nil), good...))
		if _, err := DecodeCheckpoint(bytes.NewReader(b)); err == nil {
			t.Fatalf("%s: decode accepted corrupt stream", name)
		}
	}
	corrupt("bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b })
	corrupt("bad version", func(b []byte) []byte { b[8] = 99; return b })
	corrupt("algo too long", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[12:], 1<<20)
		return b
	})
	corrupt("truncated", func(b []byte) []byte { return b[:len(b)/2] })
	corrupt("empty", func(b []byte) []byte { return nil })
	// The ranks-length word sits after magic+version+algoLen+algo+3 dims.
	rlenOff := 8 + 4 + 4 + len(c.Algo) + 24
	corrupt("ranks length mismatch", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[rlenOff:], 3)
		return b
	})
	corrupt("dims out of range", func(b []byte) []byte {
		// K word is the last of the three dims before the ranks length.
		binary.LittleEndian.PutUint64(b[rlenOff-8:], 1<<30)
		return b
	})

	// Encoding a checkpoint that violates its own invariants fails too.
	bad := &Checkpoint{Algo: "pagerank", N: 4, K: 1, Ranks: []float64{1}, Aux: []float64{0}}
	if err := EncodeCheckpoint(&buf, bad); err == nil {
		t.Fatal("encode accepted inconsistent lengths")
	}
	if err := EncodeCheckpoint(&buf, nil); err == nil {
		t.Fatal("encode accepted nil checkpoint")
	}
}

func TestPageRankResumeBitForBit(t *testing.T) {
	g := mustRMAT(t, 9, 8, 71)
	e := seqStepper{g}
	deg := outDegrees(g)
	base := PageRankOptions{MaxIters: 40, Tol: -1, RedistributeDangling: true}

	full, err := RunPageRank(e, deg, nil, base)
	if err != nil {
		t.Fatal(err)
	}

	// First half, snapshotting every 10 iterations through the binary
	// codec — exactly what a process writing checkpoint files does.
	var encoded []byte
	half := base
	half.MaxIters = 20
	half.CheckpointEvery = 10
	half.OnCheckpoint = func(c *Checkpoint) {
		var buf bytes.Buffer
		if err := EncodeCheckpoint(&buf, c); err != nil {
			t.Fatal(err)
		}
		encoded = buf.Bytes()
	}
	if _, err := RunPageRank(e, deg, nil, half); err != nil {
		t.Fatal(err)
	}
	ckpt, err := DecodeCheckpoint(bytes.NewReader(encoded))
	if err != nil {
		t.Fatal(err)
	}
	if ckpt.Iter != 20 {
		t.Fatalf("last checkpoint at iter %d, want 20", ckpt.Iter)
	}

	resumed := base
	resumed.Resume = ckpt
	res, err := RunPageRank(e, deg, nil, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != 40 {
		t.Fatalf("resumed run reached iter %d, want 40", res.Iters)
	}
	if !bitsEqual(res.Ranks, full.Ranks) {
		t.Fatal("resumed ranks are not bit-for-bit the uninterrupted run")
	}
	if math.Float64bits(res.Delta) != math.Float64bits(full.Delta) {
		t.Fatalf("resumed delta %g, want %g", res.Delta, full.Delta)
	}
}

func TestPPRResumeBitForBit(t *testing.T) {
	g := mustRMAT(t, 9, 8, 73)
	e := seqStepper{g}
	deg := outDegrees(g)
	sources := []int{1, 17, 200}
	base := PageRankOptions{MaxIters: 30, Tol: -1, RedistributeDangling: true}

	full, err := RunPersonalizedPageRankCtx(nil, e, deg, nil, sources, base)
	if err != nil {
		t.Fatal(err)
	}

	var ckpt *Checkpoint
	half := base
	half.MaxIters = 15
	half.CheckpointEvery = 5
	half.OnCheckpoint = func(c *Checkpoint) { ckpt = c.Clone() }
	if _, err := RunPersonalizedPageRankCtx(nil, e, deg, nil, sources, half); err != nil {
		t.Fatal(err)
	}
	if ckpt == nil || ckpt.Iter != 15 || ckpt.Algo != "ppr" || ckpt.K != len(sources) {
		t.Fatalf("bad checkpoint: %+v", ckpt)
	}

	resumed := base
	resumed.Resume = ckpt
	res, err := RunPersonalizedPageRankCtx(nil, e, deg, nil, sources, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != 30 {
		t.Fatalf("resumed run reached iter %d, want 30", res.Iters)
	}
	if !bitsEqual(res.Ranks, full.Ranks) {
		t.Fatal("resumed PPR lanes are not bit-for-bit the uninterrupted run")
	}
}

func TestResumeRejectsMismatchedCheckpoint(t *testing.T) {
	g := mustRMAT(t, 8, 8, 75)
	e := seqStepper{g}
	deg := outDegrees(g)
	for _, c := range []*Checkpoint{
		{Algo: "ppr", Iter: 1, N: g.NumV, K: 1, Ranks: make([]float64, g.NumV), Aux: []float64{0}},
		{Algo: "pagerank", Iter: 1, N: g.NumV + 1, K: 1, Ranks: make([]float64, g.NumV+1), Aux: []float64{0}},
		{Algo: "pagerank", Iter: 1, N: g.NumV, K: 2, Ranks: make([]float64, 2*g.NumV), Aux: []float64{0, 0}},
		{Algo: "pagerank", Iter: -1, N: g.NumV, K: 1, Ranks: make([]float64, g.NumV), Aux: []float64{0}},
	} {
		if _, err := RunPageRank(e, deg, nil, PageRankOptions{MaxIters: 5, Resume: c}); err == nil {
			t.Fatalf("resume accepted mismatched checkpoint %q n=%d k=%d iter=%d", c.Algo, c.N, c.K, c.Iter)
		}
	}
}

func TestPageRankCancelMidRunThenResume(t *testing.T) {
	g := mustRMAT(t, 9, 8, 77)
	e := seqStepper{g}
	deg := outDegrees(g)
	base := PageRankOptions{MaxIters: 30, Tol: -1}

	full, err := RunPageRank(e, deg, nil, base)
	if err != nil {
		t.Fatal(err)
	}

	// Cancel from the checkpoint callback: the run must stop at the
	// next iteration boundary with ctx.Err(), checkpoint in hand.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ckpt *Checkpoint
	interrupted := base
	interrupted.CheckpointEvery = 1
	interrupted.OnCheckpoint = func(c *Checkpoint) {
		if c.Iter == 7 {
			ckpt = c.Clone()
			cancel()
		}
	}
	res, err := RunPageRankCtx(ctx, e, deg, nil, interrupted)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Iters != 7 || ckpt == nil {
		t.Fatalf("cancelled at iter %d with ckpt %v, want 7", res.Iters, ckpt)
	}

	resumed := base
	resumed.Resume = ckpt
	res2, err := RunPageRank(e, deg, nil, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Iters != 30 || !bitsEqual(res2.Ranks, full.Ranks) {
		t.Fatal("cancel+resume did not reproduce the uninterrupted run")
	}
}

func TestPageRankRollbackOnNumericFault(t *testing.T) {
	g := mustRMAT(t, 9, 8, 79)
	want := referencePageRank(g, 20, 0.85)

	ih, err := core.Build(g, core.Params{HubsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
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

	// The watchdog's poison hook fires once per epilogue slot per step;
	// After=2·slots lands the NaN inside the third iteration, and
	// Times=1 makes the post-rollback retry of that step come up clean.
	slots, _ := e.EpiSlots()
	faultinject.Activate(faultinject.NewPlan(faultinject.Rule{
		Site: faultinject.SiteStepHealth, Kind: faultinject.NaN,
		After: int64(2 * slots), Times: 1,
	}))
	defer faultinject.Deactivate()
	res, err := RunPageRank(e, deg, testPool, PageRankOptions{
		MaxIters: 20, Tol: -1, CheckpointEvery: 1,
	})
	if err != nil {
		t.Fatalf("rollback did not absorb the numeric fault: %v", err)
	}
	if res.Rollbacks < 1 {
		t.Fatalf("Rollbacks = %d, want >= 1", res.Rollbacks)
	}
	if res.Iters != 20 {
		t.Fatalf("reached iter %d, want 20", res.Iters)
	}
	back := make([]float64, g.NumV)
	ih.PermuteToOld(res.Ranks, back)
	for v := range want {
		if math.Abs(back[v]-want[v]) > 1e-9*(1+math.Abs(want[v])) {
			t.Fatalf("post-rollback rank[%d] = %g, want %g", v, back[v], want[v])
		}
	}
}

func TestPageRankRollbackExhaustionSurfaces(t *testing.T) {
	g := mustRMAT(t, 8, 8, 81)
	ih, err := core.Build(g, core.Params{HubsPerBlock: 64})
	if err != nil {
		t.Fatal(err)
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
	// A persistent fault: every retry of the poisoned step fails again,
	// so after maxRollbackRetries the NumericError must surface.
	faultinject.Activate(faultinject.NewPlan(faultinject.Rule{
		Site: faultinject.SiteStepHealth, Kind: faultinject.NaN,
		After: 0, Times: 1 << 30,
	}))
	defer faultinject.Deactivate()
	res, err := RunPageRank(e, deg, testPool, PageRankOptions{
		MaxIters: 20, Tol: -1, CheckpointEvery: 1,
	})
	var nerr *spmv.NumericError
	if !errors.As(err, &nerr) || !nerr.Rollback {
		t.Fatalf("err = %v, want rollback *spmv.NumericError", err)
	}
	if res.Rollbacks != maxRollbackRetries {
		t.Fatalf("Rollbacks = %d, want %d", res.Rollbacks, maxRollbackRetries)
	}
}
