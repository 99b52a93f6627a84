package main

import (
	"fmt"
	"io"

	"ihtl/internal/compress"
	"ihtl/internal/core"
)

// printCompression reports the flat-vs-packed topology bytes of every
// block: the flat adjacency the engines walk against the packed gap
// rows a v2 file stores. Flat counts the adjacency IDs only (4 bytes
// each); the packed column (labelled varint, the encoding's old name)
// counts the chunked packed-row encoding including its chunk directory
// (Chunked.EncodedBytes), encoded here for the table. The row Index is
// stored in both forms, so it is excluded from the ratio.
func printCompression(w io.Writer, ih *core.IHTL) {
	fmt.Fprintf(w, "\nblock topology compression (flat vs varint adjacency):\n")
	var flatTotal, encTotal int64
	row := func(label string, edges, enc int64) {
		flat := 4 * edges
		flatTotal += flat
		encTotal += enc
		ratio := 0.0
		if enc > 0 {
			ratio = float64(flat) / float64(enc)
		}
		fmt.Fprintf(w, "  %-14s %8d edges, flat %8d B, varint %8d B, ratio %.2fx\n",
			label, edges, flat, enc, ratio)
	}
	for i := range ih.Blocks {
		fb := &ih.Blocks[i]
		row(fmt.Sprintf("flipped[%d]", i), fb.NumEdges(), compress.EncodeChunked(fb.Index, fb.Dsts, 0).EncodedBytes())
	}
	sp := &ih.Sparse
	var sparseEdges int64
	if n := len(sp.Index); n > 0 {
		sparseEdges = sp.Index[n-1]
	}
	row("sparse", sparseEdges, compress.EncodeChunked(sp.Index, sp.Srcs, 0).EncodedBytes())
	ratio := 0.0
	if encTotal > 0 {
		ratio = float64(flatTotal) / float64(encTotal)
	}
	fmt.Fprintf(w, "  %-14s %8s        flat %8d B, varint %8d B, ratio %.2fx\n",
		"total", "", flatTotal, encTotal, ratio)
}
