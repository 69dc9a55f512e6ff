package mrc

import (
	"math"
	"testing"
)

// Tests for the zero-alloc *Into variants and the Arena: warmed calls must
// not touch the heap, results must be bitwise identical to the allocating
// versions, and ConvexHullInto must honour its no-aliasing guarantee.

func testCurves() []Curve {
	return []Curve{
		New(1<<20, []float64{0.9, 0.5, 0.3, 0.2, 0.15, 0.12, 0.1}),
		New(1<<20, []float64{0.8, 0.8, 0.8, 0.1, 0.1}), // cliff
		New(1<<20, []float64{0.7}),
		New(1<<20, []float64{0.5, 0.6, 0.4, 0.7, 0.2, 0.9, 0.1}), // non-monotone
	}
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestIntoMatchesAllocating(t *testing.T) {
	for _, c := range testCurves() {
		dst := make([]float64, len(c.M))
		if got, want := c.CloneInto(dst), c.Clone(); !bitsEqual(got.M, want.M) {
			t.Errorf("CloneInto mismatch: %v vs %v", got.M, want.M)
		}
		if got, want := c.ScaleInto(dst, 3.5), c.Scale(3.5); !bitsEqual(got.M, want.M) {
			t.Errorf("ScaleInto mismatch: %v vs %v", got.M, want.M)
		}
		if got, want := c.ConvexHullInto(dst), c.ConvexHull(); !bitsEqual(got.M, want.M) {
			t.Errorf("ConvexHullInto mismatch: %v vs %v", got.M, want.M)
		}
	}
	cs := testCurves()
	want := (*Arena)(nil).Combine(cs...)
	got := CombineInto(make([]float64, len(want.M)), cs...)
	if !bitsEqual(got.M, want.M) {
		t.Errorf("CombineInto mismatch: %v vs %v", got.M, want.M)
	}
}

// TestConvexHullIntoNoAlias pins the documented guarantee: even when the
// caller passes the curve's own backing array as dst, the result never
// aliases the input (the input is left untouched).
func TestConvexHullIntoNoAlias(t *testing.T) {
	c := New(1, []float64{0.5, 0.6, 0.4, 0.7, 0.2})
	orig := append([]float64(nil), c.M...)
	want := c.ConvexHull()
	got := c.ConvexHullInto(c.M)
	if !bitsEqual(c.M, orig) {
		t.Fatalf("ConvexHullInto(c.M) mutated its input: %v, want %v", c.M, orig)
	}
	if !bitsEqual(got.M, want.M) {
		t.Fatalf("ConvexHullInto(c.M) = %v, want %v", got.M, want.M)
	}
	if len(got.M) > 0 && len(c.M) > 0 && &got.M[0] == &c.M[0] {
		t.Fatal("ConvexHullInto(c.M) returned a curve aliasing its input")
	}
}

func TestAllocGuardInto(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; guarded by the non-race CI step")
	}
	c := New(1<<20, []float64{0.9, 0.5, 0.3, 0.2, 0.15, 0.12, 0.1})
	dst := make([]float64, len(c.M))
	var out Curve
	cases := []struct {
		name string
		fn   func()
	}{
		{"CloneInto", func() { out = c.CloneInto(dst) }},
		{"ScaleInto", func() { out = c.ScaleInto(dst, 2) }},
		{"ConvexHullInto", func() { out = c.ConvexHullInto(dst) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(200, tc.fn); allocs != 0 {
			t.Errorf("%s allocated %v times per call, want 0", tc.name, allocs)
		}
	}
	allocSink = out.M[0]

	cs := testCurves()
	total := 0
	for _, cc := range cs {
		total += len(cc.M) - 1
	}
	cdst := make([]float64, total+1)
	if allocs := testing.AllocsPerRun(200, func() {
		out = CombineInto(cdst, cs...)
	}); allocs != 0 {
		t.Errorf("CombineInto allocated %v times per call, want 0 (pooled scratch)", allocs)
	}
	allocSink = out.M[0]
}

func TestAllocGuardArena(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; guarded by the non-race CI step")
	}
	var a Arena
	c := New(1<<20, []float64{0.9, 0.5, 0.3, 0.2, 0.15, 0.12, 0.1})
	// Warm the arena slabs once.
	a.Reset()
	_ = c.ConvexHullInto(a.Alloc(len(c.M)))
	_ = c.ScaleInto(a.Alloc(len(c.M)), 2)
	var out Curve
	if allocs := testing.AllocsPerRun(200, func() {
		a.Reset()
		out = c.ScaleInto(a.Alloc(len(c.M)), 2).ConvexHullInto(a.Alloc(len(c.M)))
	}); allocs != 0 {
		t.Errorf("Arena ScaleInto+ConvexHull allocated %v times per call, want 0", allocs)
	}
	allocSink = out.M[0]
}

// Clone returns a deep copy of the curve. The copy never aliases the
// receiver's backing.
func (c Curve) Clone() Curve {
	return c.CloneInto(make([]float64, len(c.M)))
}

// CloneInto copies the curve into dst and returns a curve backed by dst.
// dst must have exactly len(c.M) elements. Passing the receiver's own M is
// harmless (the copy is a no-op and the result aliases it).
func (c Curve) CloneInto(dst []float64) Curve {
	if len(dst) != len(c.M) {
		panic("mrc: CloneInto dst length mismatch")
	}
	copy(dst, c.M)
	return Curve{Unit: c.Unit, M: dst}
}
