package spmv

import "fmt"

// HealthMode selects what the numeric-health watchdog does when a
// non-finite value (NaN or ±Inf) appears in a result vector.
type HealthMode int

const (
	// HealthOff disables the watchdog (the default): no scan runs and
	// Step costs nothing extra.
	HealthOff HealthMode = iota
	// HealthError fails the step with a *NumericError, leaving the
	// corrupted destination vector in place for inspection.
	HealthError
	// HealthClamp replaces every non-finite element with 0 and carries
	// on; the step succeeds and the returned state is finite.
	HealthClamp
	// HealthRollback fails the step with a *NumericError whose Rollback
	// flag is set, telling checkpoint-aware drivers (RunPageRankCtx and
	// friends) to restore the last checkpoint and re-run from there
	// instead of aborting.
	HealthRollback
)

func (m HealthMode) String() string {
	switch m {
	case HealthOff:
		return "off"
	case HealthError:
		return "error"
	case HealthClamp:
		return "clamp"
	case HealthRollback:
		return "rollback"
	default:
		return fmt.Sprintf("HealthMode(%d)", int(m))
	}
}

// HealthPolicy is the opt-in numeric-health watchdog configuration of
// an engine. When armed, the result vector of a step is scanned for
// NaN/±Inf on the pool — fused into the step's epilogue sweep where
// one exists, so the scan adds no extra dispatch.
type HealthPolicy struct {
	Mode HealthMode
}

// Armed reports whether the policy requires any scanning at all.
func (h HealthPolicy) Armed() bool { return h.Mode != HealthOff }

// NumericError reports non-finite values detected by the watchdog.
type NumericError struct {
	// Count is the number of non-finite elements found in the scan.
	Count int64
	// First is the flat index (vertex*K+lane for batched steps) of the
	// lowest-indexed non-finite element found by the worker that owns
	// it.
	First int
	// Rollback distinguishes HealthRollback from HealthError: drivers
	// holding a checkpoint should restore it and continue rather than
	// fail the run.
	Rollback bool
}

func (e *NumericError) Error() string {
	action := "failing"
	if e.Rollback {
		action = "rolling back"
	}
	return fmt.Sprintf("spmv: %d non-finite result element(s), first at flat index %d; %s", e.Count, e.First, action)
}
