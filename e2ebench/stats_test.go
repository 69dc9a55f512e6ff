package main

import (
	"fmt"
	"math"
	"net/http"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestSummarizeTailLadder(t *testing.T) {
	for _, tc := range []struct {
		n     int
		tailP float64
	}{
		{5, 0},     // not even ten samples above the median
		{20, 50},   // exactly ten above the median
		{40, 75},   // ten above p75
		{99, 75},   // 9.9 above p90: not enough
		{100, 90},  // ten above p90
		{1000, 99}, // ten above p99
		{10000, 99.9},
	} {
		got := summarize(seq(tc.n))
		if got.N != tc.n || got.TailP != tc.tailP {
			t.Errorf("n=%d: got N=%d tail p%g, want p%g", tc.n, got.N, got.TailP, tc.tailP)
		}
		if got.P50 != float64(tc.n+1)/2 {
			t.Errorf("n=%d: median %g", tc.n, got.P50)
		}
	}
	if s := summarize(nil); s.N != 0 || s.P50 != 0 {
		t.Errorf("empty summary %+v", s)
	}
}

func TestFailedOperationsMissEveryLimit(t *testing.T) {
	xs := seq(100)
	for i := 0; i < 15; i++ {
		xs[i] = latencyOrInf(false, 1)
	}
	s := summarize(xs)
	if !math.IsInf(s.Tail, 1) {
		t.Errorf("p%g with 15 of 100 failed = %v, want +Inf", s.TailP, s.Tail)
	}
	if math.IsInf(s.P50, 0) || math.IsNaN(s.P50) {
		t.Errorf("median %v should stay finite with 15%% failed", s.P50)
	}
	if got := latencyOrInf(true, 7); got != 7 {
		t.Errorf("a success keeps its latency, got %v", got)
	}
}

func TestTally(t *testing.T) {
	var tl tally
	if tl.frac() != 0 {
		t.Error("empty tally frac")
	}
	for _, ok := range []bool{true, false, true, true} {
		tl.add(ok)
	}
	if tl.attempted != 4 || tl.failed != 1 || tl.frac() != 0.25 {
		t.Errorf("tally %+v frac %v", tl, tl.frac())
	}
}

func TestExperimentOK(t *testing.T) {
	for _, tc := range []struct {
		status int
		state  string
		ok     bool
	}{
		{http.StatusOK, "done", true},
		{http.StatusOK, "degraded", false},
		{http.StatusOK, "failed", false},
		{http.StatusTooManyRequests, "", false},
		{http.StatusInternalServerError, "failed", false},
		{http.StatusAccepted, "running", false},
	} {
		if got := experimentOK(tc.status, tc.state); got != tc.ok {
			t.Errorf("experimentOK(%d, %q) = %v", tc.status, tc.state, got)
		}
	}
	if acceptedStatus(http.StatusTooManyRequests) || !acceptedStatus(http.StatusAccepted) || !acceptedStatus(http.StatusOK) {
		t.Error("acceptedStatus")
	}
}

func TestOutputsVerify(t *testing.T) {
	o := newOutputs(map[string]string{"a": digest([]byte("x"))})
	if p := o.verify("a", []byte("x")); p != "" {
		t.Error(p)
	}
	if p := o.verify("a", []byte("y")); p == "" {
		t.Error("a digest mismatch passed")
	}
	if p := o.verify("b", []byte("1")); p != "" {
		t.Error(p)
	}
	if p := o.verify("b", []byte("2")); p == "" {
		t.Error("an output differing from the run's first passed")
	}
}

func TestJumanjiRow(t *testing.T) {
	body := "design                  tail/deadline        speedup  vulnerability  energy (mJ)\n" +
		"Static                           1.00          1.000          12.00         1.00\n" +
		"Adaptive                         1.00          1.000          12.00         1.00\n" +
		"VM-Part                          1.00          1.000           9.00         1.00\n" +
		"Jigsaw                           9.00          1.200           0.50         1.00\n" +
		"Jumanji                          0.95          1.150           0.00         1.00\n" +
		"Jumanji: Insecure                0.94          1.160           1.00         1.00\n" +
		"Jumanji: Ideal Batch             0.95          1.170           0.00         1.00\n"
	s, tail, err := jumanjiRow([]byte(body))
	if err != nil || s != 1.15 || tail != 0.95 {
		t.Fatalf("got %v %v %v", s, tail, err)
	}
	if _, _, err := jumanjiRow([]byte("design\n")); err == nil {
		t.Error("a truncated table parsed")
	}
}

func TestPlanResubmitsEarlierSpecs(t *testing.T) {
	p := planner{seed: 9}
	fresh := map[string]bool{}
	for r := 0; r < 6; r++ {
		round := p.round(r)
		if len(round) != serveClients {
			t.Fatalf("round %d has %d clients", r, len(round))
		}
		// Round r's resubmissions may only name specs planned before
		// them: earlier rounds, or earlier in the same client's round 0.
		seen := map[string]bool{}
		for k := range fresh {
			seen[k] = true
		}
		for c, items := range round {
			local := map[string]bool{}
			for _, it := range items {
				key := fmt.Sprintf("%+v", it.spec)
				switch it.kind {
				case "resubmit":
					if !seen[key] && !(r == 0 && local[key]) {
						t.Errorf("round %d client %d resubmits a spec not planned before it", r, c)
					}
				case "compare":
					if fresh[key] || local[key] {
						t.Errorf("round %d repeats a fresh spec", r)
					}
					local[key] = true
				}
			}
			for k := range local {
				fresh[k] = true
			}
		}
	}
	// Each fresh spec is read back exactly once, by the other client in the
	// next round.
	prev, next := p.round(2), p.round(3)
	for c := range next {
		other := prev[(c+1)%serveClients]
		for pos, it := range next[c] {
			if it.kind == "resubmit" && it.spec != other[pos-1].spec {
				t.Errorf("round 3 client %d position %d does not resubmit the other client's round-2 spec", c, pos)
			}
		}
	}
	again := planner{seed: 9}.round(5)
	if len(again[1]) != len(p.round(5)[1]) || again[1][2].spec != p.round(5)[1][2].spec {
		t.Error("the plan is not a function of the seed")
	}
}
