package system

import (
	"context"
	"errors"
	"strings"
	"testing"

	"jumanji/internal/chaos"
	"jumanji/internal/core"
	"jumanji/internal/mrc"
)

// mustInvariant runs the simulator with the given chaos arm and invariant
// checking on, and requires it to panic with an *InvariantError from the
// named checker. This is the acceptance criterion that no injected
// corruption reaches emitted figures silently.
func mustInvariant(t *testing.T, arm func(*chaos.Injector), wantCheck string) *InvariantError {
	t.Helper()
	cfg, wl := caseStudy(t, 1, true)
	in := chaos.New(7)
	arm(in)
	cfg.Chaos = in
	cfg.CheckInvariants = true

	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("recover escaped mustInvariant: %v", r)
		}
	}()
	var ierr *InvariantError
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("chaos %q ran to completion: injected corruption was not detected", in)
			}
			err, ok := r.(error)
			if !ok || !errors.As(err, &ierr) {
				t.Fatalf("chaos %q panicked with %v, want *InvariantError", in, r)
			}
		}()
		Run(cfg, wl, core.JumanjiPlacer{}, testEpochs, testWarmup)
	}()
	if ierr.Check != wantCheck {
		t.Fatalf("chaos %q caught by checker %q, want %q (err: %v)", in, ierr.Check, wantCheck, ierr)
	}
	return ierr
}

func TestChaosCurveNaNCaught(t *testing.T) {
	mustInvariant(t, func(in *chaos.Injector) { in.Arm(chaos.CurveNaN, 1) }, "mrc-validity")
}

func TestChaosCurveNegativeCaught(t *testing.T) {
	mustInvariant(t, func(in *chaos.Injector) { in.Arm(chaos.CurveNegative, 1) }, "mrc-validity")
}

func TestChaosCurveNonMonotoneCaught(t *testing.T) {
	mustInvariant(t, func(in *chaos.Injector) { in.Arm(chaos.CurveNonMonotone, 1) }, "mrc-validity")
}

func TestChaosPlacementOverflowCaught(t *testing.T) {
	err := mustInvariant(t, func(in *chaos.Injector) { in.Arm(chaos.PlacementOverflow, 1) }, "placement-capacity")
	if !strings.Contains(err.Error(), "over-committed") {
		t.Fatalf("placement checker reported %v, want an over-commit", err)
	}
}

func TestChaosReconfigDropCaught(t *testing.T) {
	mustInvariant(t, func(in *chaos.Injector) { in.Arm(chaos.ReconfigDrop, 1) }, "reconfig-liveness")
}

func TestChaosReconfigDelayCaught(t *testing.T) {
	mustInvariant(t, func(in *chaos.Injector) { in.Arm(chaos.ReconfigDelay, 1) }, "reconfig-liveness")
}

// The placers take convex hulls (core.AppSpec.MissRatio). Under -check, a
// hull passes "mrc-convex" even where resampling left rounding-level dents,
// and a monotone curve with a cliff fails it.
func TestMRCConvexInvariant(t *testing.T) {
	m := core.DefaultMachine()
	cliff := mrc.New(m.WayBytes(), []float64{0.9, 0.9, 0.9, 0.9, 0.2, 0.2, 0.1})
	in := &core.Input{Machine: m, Apps: []core.AppSpec{
		{Name: "hull", MissRatio: cliff.ConvexHull().Scale(0.7), AccessRate: 1},
		{Name: "cliff", MissRatio: cliff, AccessRate: 1},
	}}
	cfg := &Config{CheckInvariants: true}
	pl := core.NewPlacement(m)
	pl.Add(0, 0, m.WayBytes())
	check := func() (ierr *InvariantError) {
		defer func() {
			if r := recover(); r != nil {
				err, ok := r.(error)
				if !ok || !errors.As(err, &ierr) {
					t.Fatalf("panicked with %v, want *InvariantError", r)
				}
			}
		}()
		checkEpochInvariants(cfg, in, pl, 0, true, true)
		return nil
	}
	if err := check(); err == nil || err.Check != "mrc-convex" || !strings.Contains(err.Error(), "app 1 (cliff)") {
		t.Fatalf("cliffed input caught as %v, want mrc-convex on app 1", err)
	}
	in.Apps = in.Apps[:1]
	if err := check(); err != nil {
		t.Fatalf("hull input rejected: %v", err)
	}
}

// With chaos off, the invariant checkers must pass a clean run and leave the
// result identical to an unchecked run — the checkers observe, never steer.
func TestInvariantsPassCleanRun(t *testing.T) {
	cfg, wl := caseStudy(t, 1, true)
	plain := Run(cfg, wl, core.JumanjiPlacer{}, testEpochs, testWarmup)
	cfg.CheckInvariants = true
	checked := Run(cfg, wl, core.JumanjiPlacer{}, testEpochs, testWarmup)
	if plain.WorstNormTail != checked.WorstNormTail ||
		plain.BatchWeightedSpeedup != checked.BatchWeightedSpeedup ||
		plain.Vulnerability != checked.Vulnerability {
		t.Fatalf("invariant checking changed results: %+v vs %+v", plain, checked)
	}
}

// Reconfig drop/delay without CheckInvariants must degrade, not crash: the
// stale placement stays in force and the run completes. This is what makes
// the fault realistic — silent until a checker looks.
func TestChaosReconfigDropSilentWithoutChecks(t *testing.T) {
	cfg, wl := caseStudy(t, 1, true)
	cfg.Chaos = chaos.New(7).Arm(chaos.ReconfigDrop, 0.5)
	res := Run(cfg, wl, core.JumanjiPlacer{}, testEpochs, testWarmup)
	if len(res.Timeline) != testEpochs {
		t.Fatalf("degraded run produced %d epochs, want %d", len(res.Timeline), testEpochs)
	}
}

// Chaos injection is deterministic: two runs with the same seed fault the
// same epochs and produce identical results.
func TestChaosDeterministicAcrossRuns(t *testing.T) {
	run := func() *RunResult {
		cfg, wl := caseStudy(t, 1, true)
		cfg.Chaos = chaos.New(7).Arm(chaos.ReconfigDrop, 0.3)
		return Run(cfg, wl, core.JumanjiPlacer{}, testEpochs, testWarmup)
	}
	a, b := run(), run()
	if a.WorstNormTail != b.WorstNormTail || a.BatchWeightedSpeedup != b.BatchWeightedSpeedup {
		t.Fatalf("same chaos seed diverged: %+v vs %+v", a, b)
	}
}

func TestRunContextCancel(t *testing.T) {
	cfg, wl := caseStudy(t, 1, true)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg.Ctx = ctx

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("canceled run completed")
		}
		var cerr *CancelError
		err, ok := r.(error)
		if !ok || !errors.As(err, &cerr) {
			t.Fatalf("canceled run panicked with %v, want *CancelError", r)
		}
		if !errors.Is(cerr, context.Canceled) {
			t.Fatalf("CancelError cause = %v", cerr.Cause)
		}
	}()
	Run(cfg, wl, core.JumanjiPlacer{}, testEpochs, testWarmup)
}
