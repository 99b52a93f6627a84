package spmv

import (
	"errors"
	"math"
	"testing"

	"ihtl/internal/faultinject"
	"ihtl/internal/gen"
	"ihtl/internal/sched"
	"ihtl/internal/xrand"
)

// TestStepCtxInjectedPanicRecovery drives the baseline engines through
// injected worker panics at their chunk sites — SitePushPart in the
// buffered push, SitePullPart in the pull — and checks the panic surfaces as a
// *sched.PanicError unwrapping to the injected fault, after which the
// next clean step matches an uninjected reference.
func TestStepCtxInjectedPanicRecovery(t *testing.T) {
	g, err := gen.RMAT(gen.DefaultRMAT(10, 8, 3))
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(17)
	src := make([]float64, g.NumV)
	for i := range src {
		src[i] = r.Float64()
	}

	cases := []struct {
		dir  Direction
		site faultinject.Site
	}{
		{PushBuffered, faultinject.SitePushPart},
		{Pull, faultinject.SitePullPart},
	}
	for _, tc := range cases {
		e, err := NewEngine(g, testPool, tc.dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ref := make([]float64, g.NumV)
		e.Step(src, ref)

		dst := make([]float64, g.NumV)
		for after := int64(0); after < 3; after++ {
			plan := faultinject.NewPlan(faultinject.Rule{Site: tc.site, Kind: faultinject.Panic, After: after})
			faultinject.Activate(plan)
			err := e.StepCtx(nil, src, dst, 1, Epilogue{})
			faultinject.Deactivate()
			if plan.Fired(tc.site) == 0 {
				if err != nil {
					t.Fatalf("%s/%s after=%d: err = %v with no fault fired", tc.dir, tc.site, after, err)
				}
			} else {
				var perr *sched.PanicError
				if !errors.As(err, &perr) {
					t.Fatalf("%s/%s after=%d: err = %v, want *sched.PanicError", tc.dir, tc.site, after, err)
				}
				var ip *faultinject.InjectedPanic
				if !errors.As(err, &ip) || ip.Site != tc.site {
					t.Fatalf("%s/%s after=%d: error does not unwrap to the injected fault: %v", tc.dir, tc.site, after, err)
				}
			}
			if err := e.StepCtx(nil, src, dst, 1, Epilogue{}); err != nil {
				t.Fatalf("%s/%s after=%d: clean step: %v", tc.dir, tc.site, after, err)
			}
			for i := range ref {
				if math.Abs(dst[i]-ref[i]) > 1e-9*(1+math.Abs(ref[i])) {
					t.Fatalf("%s/%s after=%d: element %d = %g, want %g", tc.dir, tc.site, after, i, dst[i], ref[i])
				}
			}
		}
	}
}
