package mrc

import "testing"

// Allocation-regression guards: the epoch loop calls Eval millions of times
// and Combine once per VM per reconfiguration, so neither may regress to
// per-call heap allocation. Run via `go test -run AllocGuard -count=1`.

var allocSink float64

func TestAllocGuardEval(t *testing.T) {
	c := New(1<<20, []float64{0.9, 0.5, 0.3, 0.2, 0.15, 0.12, 0.1})
	allocs := testing.AllocsPerRun(200, func() {
		allocSink = c.Eval(2.5 * (1 << 20))
	})
	if allocs != 0 {
		t.Fatalf("Eval allocated %v times per call, want 0", allocs)
	}
}

func TestAllocGuardCombine(t *testing.T) {
	a := New(1<<20, []float64{0.9, 0.5, 0.3, 0.2}).ConvexHull()
	b := New(1<<20, []float64{0.8, 0.6, 0.45, 0.35, 0.3}).ConvexHull()
	c := New(1<<20, []float64{0.7, 0.4, 0.25}).ConvexHull()
	var out Curve
	allocs := testing.AllocsPerRun(200, func() {
		out = (*Arena)(nil).Combine(a, b, c)
	})
	allocSink = out.M[0]
	// Combine allocates the result curve plus one convex hull per input
	// (hulls of already-convex curves still copy); the gains scratch comes
	// from a pool. Anything above this means a reuse path regressed.
	const maxAllocs = 8
	if allocs > maxAllocs {
		t.Fatalf("Combine allocated %v times per call, want <= %d", allocs, maxAllocs)
	}
}
