package system

import (
	"fmt"
	"math"

	"jumanji/internal/chaos"
	"jumanji/internal/core"
	"jumanji/internal/feedback"
	"jumanji/internal/mrc"
	"jumanji/internal/topo"
)

// CancelError is the panic payload when Config.Ctx is done: the harness's
// hard per-cell deadline or a SIGINT unwinding an in-flight run. The
// recovering Map variant catches it like any cell panic and reports the
// epoch the run was abandoned at.
type CancelError struct {
	Epoch int
	Cause error
}

func (e *CancelError) Error() string {
	return fmt.Sprintf("system: run canceled at epoch %d: %v", e.Epoch, e.Cause)
}

func (e *CancelError) Unwrap() error { return e.Cause }

// InvariantError is the panic payload when Config.CheckInvariants detects
// corrupted simulator state. Check names the checker ("mrc-validity",
// "mrc-convex", "placement-capacity", "cpi-finite", "controller-bounds",
// "reconfig-liveness") so chaos tests can assert the right checker caught
// the injected fault.
type InvariantError struct {
	Epoch int
	Check string
	Err   error
}

func (e *InvariantError) Error() string {
	return fmt.Sprintf("system: invariant %q violated at epoch %d: %v", e.Check, e.Epoch, e.Err)
}

func (e *InvariantError) Unwrap() error { return e.Err }

// pollCtx panics with a *CancelError once the run's context is done.
func pollCtx(cfg *Config, epoch int) {
	if cfg.Ctx == nil {
		return
	}
	if err := cfg.Ctx.Err(); err != nil {
		panic(&CancelError{Epoch: epoch, Cause: err})
	}
}

// injectCurveFaults corrupts the placer input's miss curves per the armed
// chaos faults. The curves in the input alias each app's convex hull, which
// lives for the whole run — so a corrupted curve is cloned first, confining
// the fault to this reconfiguration's input exactly as a real corruption of
// the UMON transfer would be.
func injectCurveFaults(cfg *Config, in *core.Input, epoch int) {
	for _, f := range []chaos.Fault{chaos.CurveNaN, chaos.CurveNegative, chaos.CurveNonMonotone} {
		if !cfg.Chaos.Fires(f, int64(epoch)) {
			continue
		}
		app := cfg.Chaos.Pick(f, len(in.Apps), int64(epoch))
		c := in.Apps[app].MissRatio
		m := append([]float64(nil), c.M...)
		pt := cfg.Chaos.Pick(f, len(m), int64(epoch), int64(app))
		switch f {
		case chaos.CurveNaN:
			m[pt] = math.NaN()
		case chaos.CurveNegative:
			m[pt] = -1 - math.Abs(m[pt])
		case chaos.CurveNonMonotone:
			if pt == 0 {
				pt = len(m) - 1
			}
			m[pt] = m[pt-1] + math.Max(1, m[pt-1])
		}
		in.Apps[app].MissRatio = mrc.Curve{Unit: c.Unit, M: m}
	}
}

// injectPlacementFault over-commits one bank of a freshly computed placement
// when the placement-overflow fault fires.
func injectPlacementFault(cfg *Config, in *core.Input, pl *core.Placement, epoch int) {
	if !cfg.Chaos.Fires(chaos.PlacementOverflow, int64(epoch)) {
		return
	}
	app := core.AppID(cfg.Chaos.Pick(chaos.PlacementOverflow, len(in.Apps), int64(epoch)))
	bank := cfg.Chaos.Pick(chaos.PlacementOverflow, cfg.Machine.Banks(), int64(epoch), int64(app))
	pl.Add(app, topo.TileID(bank), 2*cfg.Machine.BankBytes)
}

// checkEpochInvariants runs the post-reconfiguration invariant suite: every
// input curve valid, monotone and convex (the placers take convex hulls, see
// core.AppSpec.MissRatio), the installed placement within physical capacity,
// and a reconfiguration actually landed on each reconfiguration boundary.
func checkEpochInvariants(cfg *Config, in *core.Input, pl *core.Placement, epoch int, reconfigured, boundary bool) {
	if !cfg.CheckInvariants {
		return
	}
	if boundary && !reconfigured {
		panic(&InvariantError{Epoch: epoch, Check: "reconfig-liveness",
			Err: fmt.Errorf("reconfiguration boundary passed without a fresh placement taking effect")})
	}
	if reconfigured {
		for i := range in.Apps {
			if err := in.Apps[i].MissRatio.Validate(true); err != nil {
				panic(&InvariantError{Epoch: epoch, Check: "mrc-validity",
					Err: fmt.Errorf("app %d (%s): %w", i, in.Apps[i].Name, err)})
			}
			if err := checkConvex(in.Apps[i].MissRatio); err != nil {
				panic(&InvariantError{Epoch: epoch, Check: "mrc-convex",
					Err: fmt.Errorf("app %d (%s): %w", i, in.Apps[i].Name, err)})
			}
		}
		if err := pl.Validate(in); err != nil {
			panic(&InvariantError{Epoch: epoch, Check: "placement-capacity", Err: err})
		}
	}
}

// checkConvex reports whether c is a fixed point of ConvexHull within 1e-12
// of the curve's largest value. Exact convexity (IsConvex(0)) is too strict:
// resampling a hull onto the grid leaves rounding-level dents.
func checkConvex(c mrc.Curve) error {
	h := c.ConvexHull()
	tol := 1e-12 * c.M[0]
	for i, v := range c.M {
		if math.Abs(h.M[i]-v) > tol {
			return fmt.Errorf("mrc: curve not convex: point %d is %v, its hull %v", i, v, h.M[i])
		}
	}
	return nil
}

// checkPerfInvariants verifies one app's modeled performance is physical:
// finite, positive CPI.
func checkPerfInvariants(cfg *Config, epoch int, app string, p perf) {
	if !cfg.CheckInvariants {
		return
	}
	if math.IsNaN(p.CPI) || math.IsInf(p.CPI, 0) || p.CPI <= 0 {
		panic(&InvariantError{Epoch: epoch, Check: "cpi-finite",
			Err: fmt.Errorf("app %s has CPI %g", app, p.CPI)})
	}
}

// checkControllerInvariants verifies every feedback controller respects its
// saturation bounds.
func checkControllerInvariants(cfg *Config, epoch int, ctrls map[core.AppID]*feedback.Controller) {
	if !cfg.CheckInvariants {
		return
	}
	for id, c := range ctrls {
		if err := c.CheckBounds(); err != nil {
			panic(&InvariantError{Epoch: epoch, Check: "controller-bounds",
				Err: fmt.Errorf("app %d: %w", id, err)})
		}
	}
}
