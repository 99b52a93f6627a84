package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"ihtl/internal/faultinject"
	"ihtl/internal/gen"
	"ihtl/internal/graph"
	"ihtl/internal/sched"
	"ihtl/internal/spmv"
)

// residentGraphs are the fixtures of the resident-regime suite: the
// benchmark's social-flipped input at its smoke size (R-MAT scale 10,
// edge factor 16) and its web-sparse input at smoke size, whose mean
// row of 6 over many empty rows makes the one sparse block edge-major.
func residentGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	rm, err := gen.RMAT(gen.DefaultRMAT(10, 16, 1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := gen.DefaultWeb(4000, 1)
	cfg.MeanOutDegree = 6
	web, err := gen.Web(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{"rmat": rm, "web": web}
}

// requireZeroBlocks checks the shape the resident rule promises: no
// hub, no flipped block, every vertex under its own ID and every edge
// in the sparse block.
func requireZeroBlocks(t *testing.T, label string, ih *IHTL) {
	t.Helper()
	if ih.NumHubs != 0 || ih.NumVWEH != 0 || len(ih.Blocks) != 0 || ih.NumFV != ih.NumV {
		t.Fatalf("%s: %d hubs, %d VWEH, %d FV, %d blocks; want a graph of %d fringe vertices and no block",
			label, ih.NumHubs, ih.NumVWEH, ih.NumFV, len(ih.Blocks), ih.NumV)
	}
	if ih.Sparse.DestLo != 0 || ih.Sparse.NumEdges() != ih.NumE {
		t.Fatalf("%s: sparse block starts at %d with %d of %d edges", label, ih.Sparse.DestLo, ih.Sparse.NumEdges(), ih.NumE)
	}
	for v, nv := range ih.NewID {
		if int(nv) != v {
			t.Fatalf("%s: vertex %d relabelled to %d", label, v, nv)
		}
	}
}

func v2Bytes(t *testing.T, ih *IHTL) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := ih.WriteToV2(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestResidentPredicate pins where the rule switches with the
// constants as they default: the B a default build derives is also the
// largest resident graph, at every lane width.
func TestResidentPredicate(t *testing.T) {
	for _, c := range []struct {
		name string
		p    Params
		numV int
		want bool
	}{
		{"default at B", Params{}, DefaultL2Bytes / DefaultVertexBytes, true},
		{"default one past B", Params{}, DefaultL2Bytes/DefaultVertexBytes + 1, false},
		{"2 lanes at B/2", Params{}.ForBatch(2), 65536, true},
		{"2 lanes one past", Params{}.ForBatch(2), 65537, false},
		{"8 lanes at B/8", Params{}.ForBatch(8), 16384, true},
		{"8 lanes one past", Params{}.ForBatch(8), 16385, false},
		{"CacheBytes override", Params{CacheBytes: 800}, 100, true},
		{"CacheBytes override one past", Params{CacheBytes: 800}, 101, false},
		{"VertexBytes override", Params{VertexBytes: 4}, 2 * DefaultL2Bytes / DefaultVertexBytes, true},
		{"VertexBytes override one past", Params{VertexBytes: 4}, 2*DefaultL2Bytes/DefaultVertexBytes + 1, false},
		{"both, 8 lanes", Params{CacheBytes: 6400, VertexBytes: 8}.ForBatch(8), 100, true},
		{"both, 8 lanes one past", Params{CacheBytes: 6400, VertexBytes: 8}.ForBatch(8), 101, false},
		{"explicit B", Params{HubsPerBlock: 1 << 20}, 10, false},
		{"explicit B, 8 lanes", Params{HubsPerBlock: 1 << 20}.ForBatch(8), 10, false},
		{"empty graph", Params{}, 0, true},
	} {
		if got := c.p.resident(c.numV); got != c.want {
			t.Errorf("%s: %+v resident(%d) = %v, want %v", c.name, c.p, c.numV, got, c.want)
		}
	}
}

// TestResidentRuleBuilds takes the rule through Build on both sides of
// its boundary: at NumV × VertexBytes = CacheBytes the graph has no
// block; one vertex's worth of cache less and it is, byte for byte in
// its v2 form, what an explicit B of the same size builds — the build
// of the parent commit. The exact and the fast select agree either way.
func TestResidentRuleBuilds(t *testing.T) {
	for gname, g := range residentGraphs(t) {
		n := g.NumV
		for _, c := range []struct {
			name     string
			p        Params
			resident bool
		}{
			{"default", Params{}, true},
			{"at the boundary", Params{CacheBytes: 8 * n}, true},
			{"one vertex past", Params{CacheBytes: 8 * (n - 1)}, false},
			{"wide vertices at the boundary", Params{CacheBytes: 24 * n, VertexBytes: 24}, true},
			{"wide vertices one past", Params{CacheBytes: 24 * (n - 1), VertexBytes: 24}, false},
			{"2 lanes at the boundary", Params{CacheBytes: 16 * n}.ForBatch(2), true},
			{"2 lanes one past", Params{CacheBytes: 16 * (n - 1)}.ForBatch(2), false},
			{"8 lanes at the boundary", Params{CacheBytes: 64 * n}.ForBatch(8), true},
			{"8 lanes one past", Params{CacheBytes: 64 * (n - 1)}.ForBatch(8), false},
			{"explicit B", Params{HubsPerBlock: flipB}, false},
			{"explicit B, 8 lanes", Params{HubsPerBlock: flipB}.ForBatch(8), false},
		} {
			label := gname + "/" + c.name
			ih, err := Build(g, c.p)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			fp := c.p
			fp.FastSelect = true
			fast, err := BuildWith(g, fp, testPool)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !bytes.Equal(v2Bytes(t, fast), v2Bytes(t, ih)) {
				t.Errorf("%s: FastSelect on the pool built a different graph", label)
			}
			s := ih.Stats(g)
			if s.Resident != c.resident {
				t.Fatalf("%s: Stats.Resident = %v, want %v", label, s.Resident, c.resident)
			}
			if c.resident {
				requireZeroBlocks(t, label, ih)
				if q := c.p.withDefaults(); s.VertexDataBytes != int64(n*q.VertexBytes) || s.CacheBytes != int64(q.CacheBytes) || s.VertexDataBytes > s.CacheBytes {
					t.Errorf("%s: Stats says %d B of vertex data in a %d B cache", label, s.VertexDataBytes, s.CacheBytes)
				}
				continue
			}
			if len(ih.Blocks) == 0 || ih.NumHubs == 0 {
				t.Fatalf("%s: no flipped block", label)
			}
			pinned, err := Build(g, Params{HubsPerBlock: ih.HubsPerBlock})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(v2Bytes(t, pinned), v2Bytes(t, ih)) {
				t.Errorf("%s: derived B = %d and the same B given explicitly build different graphs", label, ih.HubsPerBlock)
			}
		}
	}
}

// TestNonResidentBuildUnchanged pins the v2 files of two builds the
// rule must not touch to the hashes the parent commit writes: the
// social-flipped smoke graph with one vertex more than its cache holds,
// same Params on both sides; and the parent's default build of it, which
// an explicit B still asks for. Outside the resident regime the build is
// byte-identical.
func TestNonResidentBuildUnchanged(t *testing.T) {
	g := residentGraphs(t)["rmat"]
	for _, c := range []struct {
		p    Params
		want string
	}{
		{Params{CacheBytes: 8 * (g.NumV - 1)}, "0dfe8ecd4702fd76bbc3582ffb5bcb79a3fbb994fcc0772d0e238b637abe8523"},
		{Params{HubsPerBlock: flipB}, "1ac8eea97936189ddb86d251164d3b30435368ad6a12aab0f3ffed475332008c"},
	} {
		ih, err := BuildWith(g, c.p, testPool)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(v2Bytes(t, ih))); got != c.want {
			t.Errorf("v2 file of %d vertices, %d edges, B = %d hashes to %s, want %s", ih.NumV, ih.NumE, ih.HubsPerBlock, got, c.want)
		}
	}
}

// TestResidentEqualsDegreeFloor: the rule's zero-hub graph and the one
// a MinHubDegree above every in-degree leaves are the same graph — the
// same v1 bytes. Their v2 files differ in the stream format alone: an
// explicit B is an instruction to flip, so the floor graph is written
// packed, as the parent commit wrote both.
func TestResidentEqualsDegreeFloor(t *testing.T) {
	for gname, g := range residentGraphs(t) {
		rule, err := Build(g, Params{})
		if err != nil {
			t.Fatal(err)
		}
		floor, err := Build(g, Params{HubsPerBlock: flipB, MinHubDegree: maxInDegree(g, 0, g.NumV) + 1})
		if err != nil {
			t.Fatal(err)
		}
		requireZeroBlocks(t, gname+"/degree floor", floor)
		if floor.Stats(g).Resident {
			t.Errorf("%s: a degree-floor graph claims the resident rule", gname)
		}
		var a, b bytes.Buffer
		if _, err := rule.WriteTo(&a); err != nil {
			t.Fatal(err)
		}
		if _, err := floor.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s: v1 files differ", gname)
		}
		if rule.V2Stream() != "raw" || floor.V2Stream() != "packed" {
			t.Errorf("%s: v2 streams %s / %s, want raw / packed", gname, rule.V2Stream(), floor.V2Stream())
		}
		packed, err := parseV2(v2Bytes(t, floor))
		if err != nil {
			t.Fatal(err)
		}
		if !packed.EncodedOnly() || packed.resident {
			t.Errorf("%s: the degree-floor graph's v2 file did not open packed", gname)
		}
	}
}

// TestResidentFilesAndFaults takes a zero-block graph through the v2
// file and through a failed Step: the opened engines still
// equal the oracle bit for bit, and so does the clean Step after a
// cancellation or an injected panic in a sparse part. The "pb" rows
// build their engine with the deprecated SparseKernel set, which no
// code reads.
func TestResidentFilesAndFaults(t *testing.T) {
	g := residentGraphs(t)["rmat"]
	n := g.NumV
	src := randomVec(7, n)
	want := referenceStep(g, src, 1)
	dst := make([]float64, n)
	ih, err := BuildWith(g, Params{}, testPool)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("v2", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "g.ihtl2")
		if err := ih.SaveFileV2(path); err != nil {
			t.Fatal(err)
		}
		ef, err := OpenEngineFile(path)
		if err != nil {
			t.Fatal(err)
		}
		defer ef.Close()
		requireZeroBlocks(t, "opened", ef.IHTL())
		e, err := NewEngine(ef.IHTL(), testPool)
		if err != nil {
			t.Fatal(err)
		}
		if e.encoding != EncodingFlat || !ef.IHTL().Stats(g).Resident {
			t.Fatalf("the file of a resident graph opened %v, resident %v; want the raw file, flat and resident", e.encoding, ef.IHTL().Stats(g).Resident)
		}
		e.Step(src, dst)
		requireBitIdentical(t, "engine over the v2 file", want, dst)
	})

	for _, row := range []struct {
		label string
		opt   EngineOptions
	}{
		{"auto/pull", EngineOptions{}},
		{"varint/pull", EngineOptions{BlockEncoding: EncodingVarint}},
		{"auto/pb", EngineOptions{SparseKernel: SparsePB}},
	} {
		e, err := NewEngineOpts(ih, testPool, row.opt)
		if err != nil {
			t.Fatal(err)
		}
		label := row.label
		t.Run("cancel/"+label, func(t *testing.T) {
			for seed := uint64(0); seed < 8; seed++ {
				to := time.Duration(faultinject.SeededAfter(seed, "test.resident-cancel", 200)) * time.Microsecond
				ctx, cancel := context.WithTimeout(context.Background(), to)
				err := e.StepCtx(ctx, src, dst, 1, spmv.Epilogue{})
				cancel()
				if err != nil && !errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if err := e.StepCtx(context.Background(), src, dst, 1, spmv.Epilogue{}); err != nil {
					t.Fatalf("seed %d: clean step: %v", seed, err)
				}
				requireBitIdentical(t, fmt.Sprintf("seed %d: clean step after cancel", seed), want, dst)
			}
		})
		const site = faultinject.SiteSparsePart
		t.Run("panic/"+label, func(t *testing.T) {
			for after := int64(0); after < 4; after++ {
				plan := faultinject.NewPlan(faultinject.Rule{Site: site, Kind: faultinject.Panic, After: after})
				faultinject.Activate(plan)
				err := e.StepCtx(nil, src, dst, 1, spmv.Epilogue{})
				faultinject.Deactivate()
				var perr *sched.PanicError
				if !errors.As(err, &perr) {
					t.Fatalf("after=%d: err = %v, want *sched.PanicError (site fired %d times)", after, err, plan.Fired(site))
				}
				if err := e.StepCtx(nil, src, dst, 1, spmv.Epilogue{}); err != nil {
					t.Fatalf("after=%d: clean step: %v", after, err)
				}
				requireBitIdentical(t, fmt.Sprintf("after=%d: clean step after panic", after), want, dst)
			}
		})
	}
}
