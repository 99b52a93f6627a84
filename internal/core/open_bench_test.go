package core

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"ihtl/internal/gen"
	"ihtl/internal/graph"
	"ihtl/internal/sched"
)

// BenchmarkOpenPackedFile times what a packed v2 engine file costs the
// engine over it, on the two beyond-L2 graphs of BenchmarkShortRowKernel
// — web=1.5M (web-sparse's) and rmat=20 (social-flipped's) — each built
// with the default Params and saved packed. Two arms alternate in one
// process (altBench): "open+step" opens the file, builds an engine on
// two workers, takes the first Step and closes the file; "step" is a
// steady Step of an engine over the file opened once. Each row reports
// ns per edge of the graph; the phases are the open, the engine's
// construction and the first Step, in ms (zero on the "step" row). The
// log reports the heap an opened file holds, and with its engine: the
// HeapAlloc after a GC, less before. A graph is generated only when its
// sub-benchmark is selected. results/history/pr51/ records the rows of
// this benchmark on the change that decodes a packed file at open and
// on its parent, which stepped the packed rows in place.
func BenchmarkOpenPackedFile(b *testing.B) {
	for _, c := range []struct {
		name  string
		graph func() (*graph.Graph, error)
	}{
		{"web=1.5M", func() (*graph.Graph, error) {
			cfg := gen.DefaultWeb(1_500_000, 1002)
			cfg.MeanOutDegree = 6 // the benchmark's web-sparse shape
			return gen.Web(cfg)
		}},
		{"rmat=20", func() (*graph.Graph, error) { return gen.RMAT(gen.DefaultRMAT(20, 16, 1)) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			path, numE := packedFile(b, c.graph)
			heap := func() int64 {
				runtime.GC()
				var m runtime.MemStats
				runtime.ReadMemStats(&m)
				return int64(m.HeapAlloc)
			}
			pool := sched.NewPool(2)
			defer pool.Close()
			h0 := heap()
			ef, err := OpenEngineFile(path)
			if err != nil {
				b.Fatal(err)
			}
			defer ef.Close()
			h1 := heap()
			steady, err := NewEngine(ef.IHTL(), pool)
			if err != nil {
				b.Fatal(err)
			}
			h2 := heap()
			st, err := os.Stat(path)
			if err != nil {
				b.Fatal(err)
			}
			perEdge := func(h int64) float64 { return float64(h) / float64(numE) }
			b.Logf("%d edges, a %.1f MiB packed file (mapped %v): the opened file holds %.1f MiB of heap (%.2f B/edge), with its engine %.1f MiB (%.2f B/edge)",
				numE, float64(st.Size())/(1<<20), ef.Mapped(), float64(h1-h0)/(1<<20), perEdge(h1-h0), float64(h2-h0)/(1<<20), perEdge(h2-h0))
			n := ef.IHTL().NumV
			src, dst := make([]float64, n), make([]float64, n)
			for i := range src {
				src[i] = 1 / float64(n)
			}
			ab := altBench{unit: "ns/edge", div: float64(numE),
				phases: []altPhase{{"open-ms", 1e6}, {"engine-ms", 1e6}, {"step1-ms", 1e6}}}
			ab.arms = append(ab.arms, altArm{"open+step", func() []time.Duration {
				t0 := time.Now()
				f, err := OpenEngineFile(path)
				if err != nil {
					b.Fatal(err)
				}
				t1 := time.Now()
				e, err := NewEngine(f.IHTL(), pool)
				if err != nil {
					b.Fatal(err)
				}
				t2 := time.Now()
				e.Step(src, dst)
				t3 := time.Now()
				f.Close()
				return []time.Duration{t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)}
			}})
			ab.arms = append(ab.arms, altArm{"step", func() []time.Duration {
				steady.Step(src, dst)
				return make([]time.Duration, 3)
			}})
			ab.run(b)
		})
	}
}

// packedFile builds the graph mk makes with the default Params, saves
// it as a packed v2 file in b's temporary directory, and returns its
// path and edge count; the graph and its build are dropped before it
// returns, so the heap holds neither.
func packedFile(b *testing.B, mk func() (*graph.Graph, error)) (string, int64) {
	b.Helper()
	g, err := mk()
	if err != nil {
		b.Fatal(err)
	}
	ih, err := Build(g, Params{})
	if err != nil {
		b.Fatal(err)
	}
	if ih.V2Stream() != "packed" {
		b.Fatalf("the default build is written %s, want packed", ih.V2Stream())
	}
	path := filepath.Join(b.TempDir(), "g.ihtl2")
	if err := ih.SaveFileV2(path); err != nil {
		b.Fatal(err)
	}
	return path, ih.NumE
}
