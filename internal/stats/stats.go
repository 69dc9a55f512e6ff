// Package stats provides the small set of summary statistics used throughout
// the Jumanji evaluation: percentiles for tail latency, geometric means for
// speedups, and box-and-whisker summaries for the distribution plots
// (Fig. 13 of the paper).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. It copies xs, so the input is not
// reordered. Percentile panics if xs is empty or p is out of range, since a
// percentile of nothing is a programming error in the callers of this package.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: Percentile of empty slice")
	}
	if p < 0 || p > 100 {
		panic(fmt.Sprintf("stats: percentile %v out of range [0,100]", p))
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return percentileSorted(sorted, p)
}

// percentileSorted computes the percentile of an already-sorted slice.
func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Gmean returns the geometric mean of xs, or 0 for an empty slice.
// All values must be positive; Gmean panics otherwise because speedups
// are strictly positive by construction.
func Gmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	logSum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: Gmean of non-positive value %v", x))
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// Max returns the maximum of xs. It panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Min returns the minimum of xs. It panics on an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// BoxPlot summarizes a distribution the way Fig. 13 of the paper plots one:
// quartile box plus whiskers at the furthest data points.
type BoxPlot struct {
	Min    float64 // lower whisker: furthest low data point
	Q1     float64 // lower quartile
	Median float64
	Q3     float64 // upper quartile
	Max    float64 // upper whisker: furthest high data point
	N      int     // number of samples summarized
}

// Summarize computes the box-and-whisker summary of xs.
// It panics on an empty slice.
func Summarize(xs []float64) BoxPlot {
	if len(xs) == 0 {
		panic("stats: Summarize of empty slice")
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return BoxPlot{
		Min:    sorted[0],
		Q1:     percentileSorted(sorted, 25),
		Median: percentileSorted(sorted, 50),
		Q3:     percentileSorted(sorted, 75),
		Max:    sorted[len(sorted)-1],
		N:      len(sorted),
	}
}

// String renders the box plot as "min/Q1/med/Q3/max (n=N)" with three
// significant digits, which is how cmd/figures prints distributions.
func (b BoxPlot) String() string {
	return fmt.Sprintf("%.3g/%.3g/%.3g/%.3g/%.3g (n=%d)", b.Min, b.Q1, b.Median, b.Q3, b.Max, b.N)
}
