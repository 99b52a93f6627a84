package main

import (
	"fmt"
	"io"

	"ihtl/internal/core"
)

// printLayouts reports every block's row-length shape and the traversal
// layout a default flat engine picks from it: blocks whose rows are too
// short to amortise a loop exit are walked edge-major (core/edgemajor.go).
func printLayouts(w io.Writer, shapes []core.BlockShape) {
	fmt.Fprintf(w, "\nblock row shapes (traversal layout of a default flat engine):\n")
	for _, s := range shapes {
		fmt.Fprintf(w, "  %-14s %8d rows, %8d edges, mean row %6.2f, empty rows %5.1f%%, %s\n",
			s.Name, s.Rows, s.Edges, s.MeanRowLen, 100*s.EmptyRowFrac, s.Layout)
	}
}
