package mrc

import (
	"math"
	"math/rand"
	"testing"
)

// benchCurve builds a realistic convex-ish miss curve of n points: a decaying
// exponential with sampling noise, the shape UMON profiles produce.
func benchCurve(rng *rand.Rand, n int) Curve {
	pts := make([]float64, n)
	for i := range pts {
		pts[i] = 40*math.Exp(-float64(i)/float64(n/4+1)) + rng.Float64()*0.5
	}
	return New(64*1024, pts)
}

// BenchmarkMRCEval exercises the allocation algorithms' innermost call:
// lookahead evaluates curves twice per greedy grant, thousands of times per
// epoch. The figure to watch is ns/op of a single interpolated lookup.
func BenchmarkMRCEval(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c := benchCurve(rng, 512).ConvexHull()
	max := c.MaxSize()
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Sweep positions so the branch predictor sees the real mix of
		// in-range, clamped-low, and clamped-high lookups.
		sink += c.Eval(float64(i%700) / 700 * 1.1 * max)
	}
	_ = sink
}

// BenchmarkMRCAdd measures the pointwise sum used when pooling app curves.
func BenchmarkMRCAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x, y := benchCurve(rng, 256), benchCurve(rng, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Add(x, y)
	}
}

// BenchmarkMRCHull measures a full from-scratch convex hull (monotone pass,
// Andrew chain, grid resample) into a reused destination — what building
// one placer input curve costs.
func BenchmarkMRCHull(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	c := benchCurve(rng, 512)
	dst := make([]float64, len(c.M))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ConvexHullInto(dst)
	}
}

// BenchmarkMRCCombine measures the Whirlpool per-VM curve combination
// (one call per VM per epoch), including the pooled-scratch reuse path.
func BenchmarkMRCCombine(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	curves := make([]Curve, 4)
	for i := range curves {
		curves[i] = benchCurve(rng, 128).ConvexHull() // Combine takes hulls
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		(*Arena)(nil).Combine(curves...)
	}
}
