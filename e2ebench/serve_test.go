package main

import (
	"testing"

	"jumanji/internal/serve"
)

// TestRunRoundClosedLoop drives one round through an in-process daemon
// from both clients at once: every experiment succeeds, a resubmission is
// served by dedupe with the original's bytes, and the SSE frames are seen.
func TestRunRoundClosedLoop(t *testing.T) {
	d, err := startDaemon(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := d.stop(); err != nil {
			t.Error(err)
		}
	}()
	spec := func(lc string, seed int64) serve.Spec {
		return serve.Spec{Type: "compare", Design: "jumanji", LC: lc, Epochs: 3, Warmup: 1, Seed: seed}
	}
	items := [][]item{
		{{kind: "compare", spec: spec("xapian", 1)}, {kind: "resubmit", spec: spec("xapian", 1)}},
		{{kind: "compare", spec: spec("silo", 2)}, {kind: "resubmit", spec: spec("silo", 2)}},
	}
	rr := runRound(d, items)
	if len(rr.recs) != 4 || rr.wall <= 0 {
		t.Fatalf("round: %d records, wall %v", len(rr.recs), rr.wall)
	}
	outs := newOutputs(nil)
	for _, rec := range rr.recs {
		if !rec.ok {
			t.Fatalf("%s: %s", rec.it.kind, rec.problem)
		}
		if p := outs.verify(rec.fp, rec.body); p != "" {
			t.Error(p)
		}
		if rec.deduped != (rec.it.kind == "resubmit") {
			t.Errorf("%s spec deduped=%v", rec.it.kind, rec.deduped)
		}
		if rec.terminalMS < 0 || rec.latencyMS < rec.terminalMS {
			t.Errorf("%s: terminal frame at %v ms, result at %v ms", rec.it.kind, rec.terminalMS, rec.latencyMS)
		}
	}
	counters, err := scrapeCounters(d.base)
	if err != nil {
		t.Fatal(err)
	}
	if counters["serve.deduped"] != 2 || counters["serve.admitted"] != 2 {
		t.Errorf("counters %v, want 2 admitted and 2 deduped", counters)
	}
}
