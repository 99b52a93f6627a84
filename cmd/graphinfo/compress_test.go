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

	// The tiny example compresses badly (the chunk directory and each
	// stream's 3-byte pad dominate 14 one-byte gaps) — the point of the
	// pin is the exact shape, not the ratio; real graphs are measured by
	// BenchmarkBlockEncoding in internal/core.
	const want = `
block topology compression (flat vs varint adjacency):
  flipped[0]            9 edges, flat       36 B, varint       42 B, ratio 0.86x
  sparse                5 edges, flat       20 B, varint       38 B, ratio 0.53x
  total                          flat       56 B, varint       80 B, ratio 0.70x
`
	if got := buf.String(); got != want {
		t.Errorf("compression table drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestPrintLayoutsGolden pins the row-shape table on the same example:
// both blocks are short-row, so a default flat engine walks both
// edge-major.
func TestPrintLayoutsGolden(t *testing.T) {
	g := graph.PaperExample()
	ih, err := core.Build(g, core.Params{HubsPerBlock: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	printLayouts(&buf, ih.BlockShapes())
	const want = `
block row shapes (traversal layout of a default flat engine):
  flipped[0]            6 rows,        9 edges, mean row   1.50, empty rows   0.0%, edge-major
  sparse                6 rows,        5 edges, mean row   0.83, empty rows  33.3%, edge-major
`
	if got := buf.String(); got != want {
		t.Errorf("layout table drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
