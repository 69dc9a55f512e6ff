package mrc

import (
	"math"
	"testing"
)

// curveFromBytes decodes a fuzz payload into curve points in [0, 25.5].
func curveFromBytes(data []byte) []float64 {
	if len(data) == 0 {
		return []float64{1}
	}
	if len(data) > 200 {
		data = data[:200]
	}
	pts := make([]float64, len(data))
	for i, b := range data {
		pts[i] = float64(b) / 10
	}
	return pts
}

// FuzzConvexHull checks the hull invariants on arbitrary curves: convex,
// non-increasing, pointwise at or below the monotone curve, endpoints
// anchored.
func FuzzConvexHull(f *testing.F) {
	f.Add([]byte{100, 100, 100, 0})
	f.Add([]byte{50, 60, 10, 10, 5})
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := New(1, curveFromBytes(data))
		h := c.ConvexHull()
		mono := c.Monotone()
		if !h.IsConvex(1e-9) {
			t.Fatalf("hull not convex: in=%v out=%v", c.M, h.M)
		}
		for i := range h.M {
			if h.M[i] > mono.M[i]+1e-9 {
				t.Fatalf("hull above curve at %d", i)
			}
			if h.M[i] < 0 {
				t.Fatalf("hull negative at %d", i)
			}
		}
		n := len(h.M)
		if diff(h.M[0], mono.M[0]) > 1e-9 || diff(h.M[n-1], mono.M[n-1]) > 1e-9 {
			t.Fatal("hull endpoints moved")
		}
	})
}

// FuzzCombine checks the Whirlpool combination invariants: monotone,
// convex, correct length and endpoints.
func FuzzCombine(f *testing.F) {
	f.Add([]byte{100, 50, 20}, []byte{80, 10})
	f.Add([]byte{0}, []byte{255, 0})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		ca := New(1, curveFromBytes(a))
		cb := New(1, curveFromBytes(b))
		comb := (*Arena)(nil).Combine(ca, cb)
		wantLen := len(ca.M) - 1 + len(cb.M) - 1 + 1
		if len(comb.M) != wantLen {
			t.Fatalf("combined length %d, want %d", len(comb.M), wantLen)
		}
		if !comb.IsConvex(1e-6) {
			t.Fatal("combined curve not convex")
		}
		ha, hb := ca.ConvexHull(), cb.ConvexHull()
		if diff(comb.M[0], ha.M[0]+hb.M[0]) > 1e-6 {
			t.Fatalf("combined start %v, want %v", comb.M[0], ha.M[0]+hb.M[0])
		}
		last := ha.M[len(ha.M)-1] + hb.M[len(hb.M)-1]
		if comb.M[len(comb.M)-1] > last+1e-6 {
			t.Fatal("combined end above the sum of minima")
		}
	})
}

// FuzzHullUpdater feeds an updater two curve revisions decoded from the same
// fuzz payload (the second is the first with a byte-range splice) and checks
// both incremental results are bitwise equal to the full ConvexHull.
func FuzzHullUpdater(f *testing.F) {
	f.Add([]byte{100, 100, 100, 0}, []byte{3, 7}, uint8(1))
	f.Add([]byte{50, 60, 10, 10, 5}, []byte{0}, uint8(0))
	f.Add([]byte{0}, []byte{}, uint8(2))
	f.Fuzz(func(t *testing.T, data, patch []byte, at uint8) {
		c := New(1, curveFromBytes(data))
		var u HullUpdater
		check := func(rev string) {
			got := u.Update(c)
			want := c.ConvexHull()
			if len(got.M) != len(want.M) {
				t.Fatalf("%s: incremental length %d, want %d", rev, len(got.M), len(want.M))
			}
			for i := range got.M {
				if math.Float64bits(got.M[i]) != math.Float64bits(want.M[i]) {
					t.Fatalf("%s: incremental hull differs at %d: %v vs %v (raw %v)",
						rev, i, got.M, want.M, c.M)
				}
			}
		}
		check("initial")
		// Splice the patch into the raw curve at offset `at` (clamped).
		pos := int(at) % len(c.M)
		for i, b := range patch {
			if pos+i >= len(c.M) {
				break
			}
			c.M[pos+i] = float64(b) / 10
		}
		check("patched")
		check("unchanged") // cached-output path
	})
}

func diff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}
