package main

import (
	"bytes"
	"testing"

	"ihtl/internal/core"
	"ihtl/internal/graph"
)

// TestPrintCompressionGolden pins the compression table on the paper's
// 8-vertex example (B = 2, as in the paper's worked figures). The
// byte counts are deterministic — the build, its row order and the
// encoder are all deterministic — so any drift here means the on-disk
// or in-memory encoding changed shape.
func TestPrintCompressionGolden(t *testing.T) {
	g := graph.PaperExample()
	ih, err := core.Build(g, core.Params{HubsPerBlock: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	printCompression(&buf, ih)

	// The tiny example compresses badly (chunk directory overhead
	// dominates 14 edges) — the point of the pin is the exact shape,
	// not the ratio; real graphs are measured by ihtlbench -encjson.
	const want = `
block topology compression (flat vs varint adjacency):
  flipped[0]            9 edges, flat       36 B, varint       39 B, ratio 0.92x
  sparse                5 edges, flat       20 B, varint       35 B, ratio 0.57x
  total                          flat       56 B, varint       74 B, ratio 0.76x
`
	if got := buf.String(); got != want {
		t.Errorf("compression table drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
