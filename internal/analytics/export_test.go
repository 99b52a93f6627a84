package analytics

import (
	"ihtl/internal/graph"
	"ihtl/internal/spmv"
)

// NewSeqStepper exposes the sequential test stepper to the external
// conformance table.
func NewSeqStepper(g *graph.Graph) spmv.Stepper { return seqStepper{g} }
