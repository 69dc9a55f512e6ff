// alloc-guarded: HullUpdater serves per-epoch hull recomputation; new
// per-call heap allocation sites here are caught by cmd/allocvet and the
// TestAllocGuard* suite.

package mrc

import "math"

// HullUpdater computes the convex hull of a slowly-changing curve
// incrementally. Placers recompute hulls every reconfiguration epoch, but the
// underlying miss curves usually changed in few points (often none): the
// updater diffs the new curve against the previous epoch's, reuses the
// monotone-chain prefix up to the first changed point, and replays only the
// suffix. The output is pinned bitwise-equal to Curve.ConvexHull by
// TestHullUpdaterMatchesFull and FuzzHullUpdater.
//
// Why the restart is exact: the monotone pass value at index i is a pure
// function of the raw prefix [0..i], and the chain's vertex stack after
// consuming point i is a pure function of the monotone prefix [0..i]. If the
// first changed monotone value is at index d, the stack state before point d
// is identical to the previous epoch's at that moment — and the updater can
// reconstruct it without re-running the chain, because each point is pushed
// exactly once and popped at most once: a point i < d was on the stack at
// time d iff it was popped at some index >= d or never popped (popAt
// bookkeeping below).
//
// The returned curve aliases updater-owned backing, valid until the next
// Update; copy its M to keep it longer. A HullUpdater is not safe for
// concurrent use. The zero value is ready to use.
type HullUpdater struct {
	unit float64
	raw  []float64 // previous epoch's input curve
	mono []float64 // monotone pass over raw

	// Chain state for mono. popAt[i] is the index of the point whose
	// processing popped vertex i off the stack, or -1 if i is still on it.
	// stk/stkIdx are the surviving vertices (values and indices, in step).
	popAt  []int32
	stk    []pt
	stkIdx []int32

	out   []float64 // resampled hull, returned to the caller
	valid bool
}

// Update returns the convex hull of c, bitwise-identical to c.ConvexHull().
// The result aliases updater-owned memory and is valid until the next Update.
func (u *HullUpdater) Update(c Curve) Curve {
	n := len(c.M)
	if !u.valid || u.unit != c.Unit || len(u.raw) != n {
		u.reset(c.Unit, n)
		return u.recompute(c, 0, true)
	}
	// Find the first changed raw point by bits: -0.0 == +0.0 and NaN != NaN
	// under ==, either of which would break the replayed-prefix equivalence.
	d := -1
	for i := 0; i < n; i++ {
		if math.Float64bits(c.M[i]) != math.Float64bits(u.raw[i]) {
			d = i
			break
		}
	}
	if d < 0 {
		return Curve{Unit: u.unit, M: u.out}
	}
	return u.recompute(c, d, false)
}

// reset sizes the state for a curve of n points. // alloc: ok (sizing happens
// once per (updater, curve length), amortized to zero across epochs)
func (u *HullUpdater) reset(unit float64, n int) {
	u.unit = unit
	u.valid = true
	if cap(u.raw) < n {
		u.raw = make([]float64, n)     // alloc: ok
		u.mono = make([]float64, n)    // alloc: ok
		u.popAt = make([]int32, n)     // alloc: ok
		u.out = make([]float64, n)     // alloc: ok
		u.stk = make([]pt, 0, n)       // alloc: ok
		u.stkIdx = make([]int32, 0, n) // alloc: ok
	}
	u.raw = u.raw[:n]
	u.mono = u.mono[:n]
	u.popAt = u.popAt[:n]
	u.out = u.out[:n]
}

// recompute replays the pipeline from raw index d onward. full forces a
// complete replay (fresh state, where the stored mono is garbage).
func (u *HullUpdater) recompute(c Curve, d int, full bool) Curve {
	n := len(c.M)
	copy(u.raw[d:], c.M[d:])
	// Monotone pass from d, tracking the first index whose monotone value
	// actually changed — raw changes above the running minimum are invisible
	// to the hull.
	dm := -1
	if full {
		dm = 0
	}
	for i := d; i < n; i++ {
		m := u.raw[i]
		if i > 0 && m > u.mono[i-1] {
			m = u.mono[i-1]
		}
		if dm < 0 && math.Float64bits(m) != math.Float64bits(u.mono[i]) {
			dm = i
		}
		u.mono[i] = m
	}
	if dm < 0 {
		// Raw changed but every change was clamped away: hull unchanged.
		return Curve{Unit: u.unit, M: u.out}
	}
	if n <= 2 {
		// ConvexHull returns the monotone curve directly for n <= 2.
		copy(u.out[dm:], u.mono[dm:])
		return Curve{Unit: u.unit, M: u.out}
	}
	// Reconstruct the chain stack as it stood just before point dm was
	// processed: every vertex i < dm that was popped at or after dm (or
	// never) was on the stack at that moment, in index order.
	stk, idx := u.stk[:0], u.stkIdx[:0]
	if !full {
		for i := 0; i < dm; i++ {
			if u.popAt[i] < 0 || int(u.popAt[i]) >= dm {
				stk = append(stk, pt{float64(i), u.mono[i]})
				idx = append(idx, int32(i))
				u.popAt[i] = -1
			}
		}
	}
	// Replay the monotone chain from dm with the same pop test as
	// ConvexHullInto.
	for i := dm; i < n; i++ {
		p := pt{float64(i), u.mono[i]}
		for len(stk) >= 2 {
			a, b := stk[len(stk)-2], stk[len(stk)-1]
			if (b.y-a.y)*(p.x-a.x) >= (p.y-a.y)*(b.x-a.x) {
				u.popAt[idx[len(idx)-1]] = int32(i)
				stk = stk[:len(stk)-1]
				idx = idx[:len(idx)-1]
			} else {
				break
			}
		}
		u.popAt[i] = -1
		stk = append(stk, p)
		idx = append(idx, int32(i))
	}
	u.stk, u.stkIdx = stk, idx
	resampleHull(u.out, stk)
	return Curve{Unit: u.unit, M: u.out}
}
