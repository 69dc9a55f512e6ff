// alloc-guarded: this file implements the epoch loop's curve storage; new
// per-call heap allocation sites here are caught by cmd/allocvet and the
// TestAllocGuard* suite.

package mrc

// Arena hands out []float64 backing from reusable slabs, so the epoch loop's
// curve temporaries (scaled and combined curves) stop hitting the heap.
//
// Lifetime rules:
//
//   - Every curve produced through an arena (Alloc, Curve, Combine, or an
//     *Into form given Alloc storage) is valid only until the
//     next Reset of that arena. Callers that need a curve to survive Reset
//     must copy its M first.
//   - Reset recycles all slabs without zeroing; the next Alloc hands out the
//     same memory. An arena therefore reaches a high-water mark once and
//     allocates nothing afterwards (the property TestAllocGuardArena pins).
//   - An Arena is not safe for concurrent use; give each goroutine its own
//     (the placers pool one per placement call).
//
// A nil *Arena is valid everywhere one is accepted: allocation falls back to
// plain make, so cold paths need no arena plumbing.
type Arena struct {
	slabs [][]float64
	slab  int // slab currently being filled
	off   int // used floats in that slab
}

// arenaSlabFloats is the minimum slab size. One slab comfortably holds all
// curve temporaries of a 20-app reconfiguration (~50k floats), so steady
// state touches a single slab.
const arenaSlabFloats = 64 * 1024

// Reset recycles every slab. Curves previously handed out become invalid
// (their backing will be reused) but keep their old contents until
// overwritten, so a use-after-Reset bug corrupts results rather than
// crashing — don't rely on either.
func (a *Arena) Reset() {
	a.slab, a.off = 0, 0
}

// Alloc returns a length-n slice backed by the arena. Contents are
// unspecified (recycled slabs are not zeroed); callers overwrite every
// element. A nil arena falls back to make. // alloc: ok (nil-arena fallback and slab growth)
func (a *Arena) Alloc(n int) []float64 {
	if a == nil {
		return make([]float64, n) // alloc: ok
	}
	for a.slab < len(a.slabs) {
		s := a.slabs[a.slab]
		if a.off+n <= len(s) {
			out := s[a.off : a.off+n : a.off+n]
			a.off += n
			return out
		}
		a.slab++
		a.off = 0
	}
	size := arenaSlabFloats
	if n > size {
		size = n
	}
	s := make([]float64, size) // alloc: ok (slab growth, amortized to zero)
	a.slabs = append(a.slabs, s)
	a.slab = len(a.slabs) - 1
	a.off = n
	return s[:n:n]
}

// Curve returns an uninitialized curve of n points backed by the arena.
func (a *Arena) Curve(unit float64, n int) Curve {
	return Curve{Unit: unit, M: a.Alloc(n)}
}

// Combine computes the combined miss curve of several applications sharing a
// pooled allocation that is optimally partitioned among them — the Whirlpool
// Appendix-B model the paper uses to form per-VM curves. combined(S) =
// min over {s_i : sum s_i = S} of sum_i curve_i(s_i).
//
// For convex curves the greedy marginal-utility construction is exactly
// optimal, so the inputs must be convex: callers pass convex hulls (the
// paper's DRRIP approximation), built once where the curves are produced.
// All inputs must share a unit. The result has steps = sum of the inputs'
// steps and is backed by the arena (a nil arena allocates it); the arena's
// footprint is just the result curve.
func (a *Arena) Combine(curves ...Curve) Curve {
	if len(curves) == 0 {
		panic("mrc: Combine of no curves")
	}
	totalSteps := 0
	for _, c := range curves {
		totalSteps += len(c.M) - 1
	}
	return CombineInto(a.Alloc(totalSteps+1), curves...)
}
