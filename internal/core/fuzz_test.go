package core

import (
	"bytes"
	"testing"

	"ihtl/internal/gen"
	"ihtl/internal/graph"
	"ihtl/internal/sched"
)

// FuzzReadIHTL guards the iHTL binary decoders — ReadIHTL takes every
// version, a v2 file through parseV2, and refuses a v3 one by name:
// arbitrary bytes must either fail
// cleanly or decode into a structurally sound iHTL graph (inverse
// relabeling arrays, in-range block destinations, edge conservation —
// all checked inside), and every file that is accepted — v1, raw v2, or
// packed v2 decoded at open — must be safe under the flat kernels that
// will walk it unchecked.
func FuzzReadIHTL(f *testing.F) {
	ih, err := Build(graph.PaperExample(), Params{HubsPerBlock: 2})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ih.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	data := append([]byte(nil), buf.Bytes()...)
	data[len(data)/2] ^= 0xA5
	f.Add(data)
	// A raw v2 file (a resident build), whole and with an id damaged.
	res, err := Build(graph.PaperExample(), Params{})
	if err != nil {
		f.Fatal(err)
	}
	buf.Reset()
	if _, err := res.WriteToV2(&buf); err != nil || res.V2Stream() != "raw" {
		f.Fatal(err, res.V2Stream())
	}
	f.Add(buf.Bytes())
	data = append([]byte(nil), buf.Bytes()...)
	data[len(data)-64] ^= 0x0F
	f.Add(data)
	// A v1 file of an R-MAT build with several flipped blocks and a
	// sparse block of many rows, whole and with two sparse offsets
	// swapped (TestReadIHTLRejectsBrokenSparseRows).
	rg, err := gen.RMAT(gen.DefaultRMAT(8, 6, 1))
	if err != nil {
		f.Fatal(err)
	}
	flip, err := Build(rg, Params{HubsPerBlock: 16})
	if err != nil || len(flip.Blocks) < 2 {
		f.Fatal(err, len(flip.Blocks))
	}
	buf.Reset()
	if _, err := flip.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	sp := &flip.Sparse
	sp.Index[1], sp.Index[2] = sp.Index[2], sp.Index[1]
	buf.Reset()
	if _, err := flip.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	// A v3 header (the removed sharded container) with a short body:
	// refused from its version word, whatever sizes it declares.
	f.Add(append(v3Header(), make([]byte, 40)...))

	pool := sched.NewPool(1)
	f.Cleanup(pool.Close)
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadIHTL(bytes.NewReader(data))
		if err != nil {
			return
		}
		if got.FlippedEdges()+got.Sparse.NumEdges() != got.NumE {
			t.Fatal("decoder accepted inconsistent edge counts")
		}
		// An accepted file is stepped as it opened, by the unchecked
		// flat kernels (-tags=ihtlchecked: a stray access panics).
		e, err := NewEngineOpts(got, pool, EngineOptions{})
		if err != nil {
			t.Fatalf("accepted file builds no engine: %v", err)
		}
		e.Step(integerVec(1, got.NumV), make([]float64, got.NumV))
		e.StepBatch(integerVec(2, 4*got.NumV), make([]float64, 4*got.NumV), 4)
	})
}
