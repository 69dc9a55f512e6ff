package main

import (
	"fmt"
	"math"
	"net/http"
	"sort"

	"jumanji/internal/stats"
)

// tailLadder is the set of percentiles a timing's tail may be reported at,
// highest first.
var tailLadder = []float64{99.9, 99, 90, 75, 50}

// timing summarizes one timed operation: its sample count, median, and the
// highest ladder percentile that has at least ten samples beyond it (TailP
// is 0 when even the median has fewer than ten samples above it).
type timing struct {
	N     int
	P50   float64
	TailP float64
	Tail  float64
}

// summarize computes a timing summary. Failed operations enter xs as +Inf,
// so they count as missing any latency limit.
func summarize(xs []float64) timing {
	if len(xs) == 0 {
		return timing{}
	}
	t := timing{N: len(xs), P50: percentile(xs, 50)}
	for _, p := range tailLadder {
		if float64(len(xs))*(100-p)/100 >= 10-1e-9 { // 1e-9 absorbs 100-99.9's rounding
			t.TailP, t.Tail = p, percentile(xs, p)
			break
		}
	}
	return t
}

// String renders the summary with its sample count.
func (t timing) String() string {
	if t.TailP == 0 {
		return fmt.Sprintf("p50=%.6g (n=%d; too few samples for a tail)", t.P50, t.N)
	}
	return fmt.Sprintf("p50=%.6g p%g=%.6g (n=%d)", t.P50, t.TailP, t.Tail, t.N)
}

// percentile is stats.Percentile made safe for +Inf samples: linear
// interpolation between an infinite and a finite rank is NaN in IEEE
// arithmetic, but a percentile that touches a failed operation has missed
// its limit and is +Inf.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := p / 100 * float64(len(s)-1)
	if math.IsInf(s[int(math.Ceil(rank))], 1) {
		return math.Inf(1)
	}
	return stats.Percentile(s, p)
}

// median is the 50th percentile; 0 for no samples.
func median(xs []float64) float64 { return percentile(xs, 50) }

// tally counts attempted and failed operations.
type tally struct{ attempted, failed int }

// add records one operation.
func (t *tally) add(ok bool) {
	t.attempted++
	if !ok {
		t.failed++
	}
}

// frac is failed ÷ attempted (0 when nothing was attempted).
func (t tally) frac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// experimentOK classifies one serve request: only a 2xx answer whose
// experiment finished in state "done" succeeded. A refusal (429), any other
// non-2xx status, and a degraded or failed experiment all count as failed.
func experimentOK(status int, state string) bool {
	return status >= 200 && status < 300 && state == "done"
}

// latencyOrInf is the latency sample an operation contributes: its measured
// latency when it succeeded, +Inf when it failed.
func latencyOrInf(ok bool, ms float64) float64 {
	if !ok {
		return math.Inf(1)
	}
	return ms
}

// acceptedStatus reports whether a POST /experiments answer admitted the
// spec (202 new, 200 deduped).
func acceptedStatus(status int) bool {
	return status == http.StatusAccepted || status == http.StatusOK
}
