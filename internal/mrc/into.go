// alloc-guarded: the Into variants are the epoch loop's curve transforms; new
// per-call heap allocation sites here are caught by cmd/allocvet and the
// TestAllocGuard* suite.

package mrc

import (
	"sort"
	"sync"
)

// pt is a hull vertex in (capacity-step, miss-rate) space.
type pt struct{ x, y float64 }

var (
	gainsPool   = sync.Pool{New: func() any { return new([]float64) }}
	hullPtsPool = sync.Pool{New: func() any { return new([]pt) }}
)

// ScaleInto writes the curve scaled by f into dst and returns a curve backed
// by dst. dst must have exactly len(c.M) elements; f must be non-negative.
// dst may alias the receiver's M (each element is read before written).
func (c Curve) ScaleInto(dst []float64, f float64) Curve {
	if f < 0 {
		panic("mrc: negative scale factor")
	}
	if len(dst) != len(c.M) {
		panic("mrc: ScaleInto dst length mismatch")
	}
	for i, v := range c.M {
		dst[i] = v * f
	}
	return Curve{Unit: c.Unit, M: dst}
}

// ConvexHullInto computes the lower convex hull (see ConvexHull) into dst and
// returns a curve backed by the result. dst must have exactly len(c.M)
// elements. The transform runs monotone and resample passes in place, so the
// result must not share backing with the input: if dst is the receiver's own
// M, a fresh slice is allocated instead and the receiver stays intact — the
// returned curve never aliases the input.
func (c Curve) ConvexHullInto(dst []float64) Curve {
	n := len(c.M)
	if len(dst) != n {
		panic("mrc: ConvexHullInto dst length mismatch")
	}
	if n == 0 {
		return Curve{Unit: c.Unit, M: dst}
	}
	if &dst[0] == &c.M[0] {
		dst = make([]float64, n) // alloc: ok (src==dst fallback keeps the input intact)
	}
	// Monotone pass into dst: same recurrence as Monotone, private backing.
	dst[0] = c.M[0]
	for i := 1; i < n; i++ {
		dst[i] = c.M[i]
		if dst[i] > dst[i-1] {
			dst[i] = dst[i-1]
		}
	}
	out := Curve{Unit: c.Unit, M: dst}
	if n <= 2 {
		return out
	}
	// Andrew's monotone chain over points (i, M[i]), keeping the lower hull.
	// The vertex stack is pooled scratch — it reaches its high-water mark on
	// the first large curve and is reused for every hull afterwards.
	hp := hullPtsPool.Get().(*[]pt)
	hull := (*hp)[:0]
	for i := 0; i < n; i++ {
		p := pt{float64(i), dst[i]}
		for len(hull) >= 2 {
			a, b := hull[len(hull)-2], hull[len(hull)-1]
			// Remove b if it lies on or above segment a-p (non-convex turn).
			if (b.y-a.y)*(p.x-a.x) >= (p.y-a.y)*(b.x-a.x) {
				hull = hull[:len(hull)-1]
			} else {
				break
			}
		}
		hull = append(hull, p)
	}
	// Re-sample the hull back onto the original grid, writing over dst in
	// place: the hull vertices hold their own y values, so dst is no longer
	// read.
	resampleHull(dst, hull)
	*hp = hull
	hullPtsPool.Put(hp)
	return out
}

// resampleHull writes the piecewise-linear hull back onto the integer grid
// 0..len(dst)-1.
func resampleHull(dst []float64, hull []pt) {
	seg := 0
	for i := range dst {
		x := float64(i)
		for seg < len(hull)-2 && hull[seg+1].x <= x {
			seg++
		}
		a, b := hull[seg], hull[min(seg+1, len(hull)-1)]
		if a.x == b.x {
			dst[i] = a.y
			continue
		}
		t := (x - a.x) / (b.x - a.x)
		dst[i] = a.y + t*(b.y-a.y)
	}
}

// CombineInto is Arena.Combine with the result written into dst, which must
// have exactly (sum of input steps)+1 elements. The inputs must be convex
// (see Arena.Combine). The gains list lives in pooled scratch, so a warmed
// call allocates nothing. dst must not share backing with any input curve.
func CombineInto(dst []float64, curves ...Curve) Curve {
	if len(curves) == 0 {
		panic("mrc: Combine of no curves")
	}
	unit := curves[0].Unit
	totalSteps := 0
	for _, c := range curves {
		if c.Unit != unit {
			panic("mrc: Combine on mismatched units")
		}
		totalSteps += len(c.M) - 1
	}
	if len(dst) != totalSteps+1 {
		panic("mrc: CombineInto dst length mismatch")
	}
	// Gather each curve's per-step miss reduction into pooled scratch —
	// Combine runs once per VM per epoch, so the gains buffer is reused
	// across calls rather than reallocated. Convexity makes each curve's list
	// non-increasing, so a single global descending merge is optimal.
	gp := gainsPool.Get().(*[]float64)
	gains := (*gp)[:0]
	base := 0.0
	for _, c := range curves {
		base += c.M[0]
		for i := 1; i < len(c.M); i++ {
			gains = append(gains, c.M[i-1]-c.M[i])
		}
	}
	// Ascending sort (the specialized float64 path), consumed back-to-front:
	// same descending order of values as sorting descending, without the
	// interface indirection of sort.Reverse.
	sort.Float64s(gains)
	dst[0] = base
	for i := range gains {
		g := gains[len(gains)-1-i]
		dst[i+1] = dst[i] - g
		if dst[i+1] < 0 {
			dst[i+1] = 0 // guard against float drift
		}
	}
	*gp = gains
	gainsPool.Put(gp)
	return Curve{Unit: unit, M: dst}
}
