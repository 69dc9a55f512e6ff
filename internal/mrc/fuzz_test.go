package mrc

import "testing"

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
// convex, correct length and endpoints. Combine's inputs must be convex, so
// the decoded curves are hulled first.
func FuzzCombine(f *testing.F) {
	f.Add([]byte{100, 50, 20}, []byte{80, 10})
	f.Add([]byte{0}, []byte{255, 0})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		ha := New(1, curveFromBytes(a)).ConvexHull()
		hb := New(1, curveFromBytes(b)).ConvexHull()
		comb := (*Arena)(nil).Combine(ha, hb)
		wantLen := len(ha.M) - 1 + len(hb.M) - 1 + 1
		if len(comb.M) != wantLen {
			t.Fatalf("combined length %d, want %d", len(comb.M), wantLen)
		}
		if !comb.IsConvex(1e-6) {
			t.Fatal("combined curve not convex")
		}
		if diff(comb.M[0], ha.M[0]+hb.M[0]) > 1e-6 {
			t.Fatalf("combined start %v, want %v", comb.M[0], ha.M[0]+hb.M[0])
		}
		last := ha.M[len(ha.M)-1] + hb.M[len(hb.M)-1]
		if comb.M[len(comb.M)-1] > last+1e-6 {
			t.Fatal("combined end above the sum of minima")
		}
	})
}

func diff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}
