package obs

import (
	"bytes"
	"encoding/gob"
	"testing"
	"time"

	"jumanji/internal/obs/tsdb"
)

// populate writes a representative mix of metrics, events, and trace
// activity into a cell, the way a worker run would.
func populate(c *Cell) {
	c.Metrics.Counter("system.epochs").Add(40)
	c.Metrics.Gauge("run.tail").Set(1.25)
	c.Metrics.Gauge("run.never_set") // registered but unset: merge must not clobber
	h := c.Metrics.Histogram("lat", 0, 2, 10)
	h.Observe(0.5)
	h.Observe(1.9)
	h.Observe(7.0) // clamps to last bin

	c.Events.EmitRunStart(RunStart{
		Design: "jumanji", Epochs: 4, Warmup: 1, Banks: 36, BankBytes: 768 * 1024,
		Apps: []AppInfo{{App: 0, Name: "xapian", LatencyCritical: true}},
	})
	c.Events.EmitRunEnd(RunEnd{Design: "jumanji", WorstNormTail: 1.02, BatchWeightedSpeedup: 1.1})

	c.TS.Append("system.epochs", 0, 1)
	c.TS.Append("system.epochs", 1, 1)
	c.TS.Append("system.lat_norm.p95", 1, 0.9)

	lane := c.Trace.Lane("jumanji")
	c.Trace.Span(lane, 0, "epoch", "epoch", 0, 100000, map[string]any{"epoch": 0, "vulnerability": 0.125})
	c.Trace.Instant(lane, 0, "reconfigure", 100000, map[string]any{"moved_fraction_max": 0.2})
	c.Trace.Counter(lane, "alloc_mb", 0, map[string]float64{"xapian": 2.5})
}

// mergeAll folds a cell into fresh user sinks and renders everything to
// bytes, the same way the CLIs do.
func mergeAll(t *testing.T, c *Cell) (metrics, events, trace, ts string) {
	t.Helper()
	reg := NewRegistry()
	var evBuf, trBuf bytes.Buffer
	ev := NewEventLog(&evBuf)
	tr := NewTrace(&trBuf)
	db := tsdb.New(64)
	if err := c.MergeInto(reg, ev, tr, db, nil); err != nil {
		t.Fatal(err)
	}
	var regBuf bytes.Buffer
	if err := reg.WriteText(&regBuf); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var tsBuf bytes.Buffer
	if err := db.Write(&tsBuf); err != nil {
		t.Fatal(err)
	}
	return regBuf.String(), evBuf.String(), trBuf.String(), tsBuf.String()
}

// The journal's core guarantee: a cell snapshotted, gob-encoded (as the
// journal stores it), decoded, and rebuilt merges byte-identically to the
// original cell.
func TestCellStateRoundTripByteIdentical(t *testing.T) {
	orig := Sinks{Metrics: NewRegistry(), Events: NewEventLog(&bytes.Buffer{}), Trace: NewTrace(nil), TS: tsdb.New(64), Prov: NewEventLog(&bytes.Buffer{})}.NewCell()
	populate(orig)

	st, err := orig.State()
	if err != nil {
		t.Fatal(err)
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(st); err != nil {
		t.Fatal(err)
	}
	var decoded CellState
	if err := gob.NewDecoder(bytes.NewReader(payload.Bytes())).Decode(&decoded); err != nil {
		t.Fatal(err)
	}
	replayed, err := CellFromState(decoded)
	if err != nil {
		t.Fatal(err)
	}

	m1, e1, t1, s1 := mergeAll(t, orig)
	m2, e2, t2, s2 := mergeAll(t, replayed)
	if m1 != m2 {
		t.Errorf("metrics diverge:\noriginal:\n%s\nreplayed:\n%s", m1, m2)
	}
	if e1 != e2 {
		t.Errorf("events diverge:\noriginal:\n%s\nreplayed:\n%s", e1, e2)
	}
	if t1 != t2 {
		t.Errorf("trace diverges:\noriginal:\n%s\nreplayed:\n%s", t1, t2)
	}
	if s1 != s2 {
		t.Errorf("tsdb diverges:\noriginal:\n%s\nreplayed:\n%s", s1, s2)
	}
	if m1 == "" || e1 == "" {
		t.Fatal("test exercised empty sinks")
	}
	if replayed.TS.Lookup("system.epochs").Len() != 2 {
		t.Fatal("replayed tsdb lost samples")
	}
}

// A replayed cell must preserve exact counter integers (beyond float64
// precision) and the gauge set flag.
func TestCellStateLossless(t *testing.T) {
	c := Sinks{Metrics: NewRegistry()}.NewCell()
	const big = uint64(1)<<60 + 3
	c.Metrics.Counter("huge").Add(big)
	c.Metrics.Gauge("unset")

	st, err := c.State()
	if err != nil {
		t.Fatal(err)
	}
	back, err := CellFromState(st)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Metrics.Counter("huge").Value(); got != big {
		t.Fatalf("counter = %d, want %d", got, big)
	}

	user := NewRegistry()
	user.Gauge("unset").Set(42)
	user.Merge(back.Metrics)
	if got := user.Gauge("unset").Value(); got != 42 {
		t.Fatalf("unset replayed gauge clobbered user value: %g", got)
	}
}

func TestCellStateDisabledSinks(t *testing.T) {
	// A fully disabled cell round-trips to a cell that merges as a no-op.
	c := Sinks{}.NewCell()
	st, err := c.State()
	if err != nil {
		t.Fatal(err)
	}
	back, err := CellFromState(st)
	if err != nil {
		t.Fatal(err)
	}
	if back.Metrics != nil || back.Trace != nil || back.eventsBuf != nil || back.TS != nil {
		t.Fatal("disabled sinks resurrected")
	}
	if err := back.MergeInto(nil, nil, nil, nil, nil); err != nil {
		t.Fatal(err)
	}

	var nilCell *Cell
	if _, err := nilCell.State(); err != nil {
		t.Fatal(err)
	}
}

func TestCellStateRejectsCorruptMetrics(t *testing.T) {
	if _, err := CellFromState(CellState{Metrics: []MetricState{{Name: "h", Kind: KindHistogram}}}); err == nil {
		t.Fatal("histogram with no bins must be rejected")
	}
	if _, err := CellFromState(CellState{Metrics: []MetricState{{Name: "x", Kind: Kind(99)}}}); err == nil {
		t.Fatal("unknown metric kind must be rejected")
	}
	if _, err := CellFromState(CellState{Trace: []byte("not json")}); err == nil {
		t.Fatal("corrupt trace bytes must be rejected")
	}
	if _, err := CellFromState(CellState{TS: []byte("not json")}); err == nil {
		t.Fatal("corrupt tsdb bytes must be rejected")
	}
}

func TestSpansActiveTracking(t *testing.T) {
	s := NewSpans()
	if got := s.Active(); got != nil {
		t.Fatalf("Active before TrackActive = %v", got)
	}
	// Spans started before tracking are invisible, by design.
	pre := s.Start("before")
	s.TrackActive()

	a := s.Start("system.epoch_model")
	time.Sleep(time.Millisecond)
	b := s.Start("core.place")
	act := s.Active()
	if len(act) != 2 {
		t.Fatalf("Active = %v, want 2 spans", act)
	}
	if act[0].Name != "system.epoch_model" || act[1].Name != "core.place" {
		t.Fatalf("Active order = %v, want oldest first", act)
	}
	b.Stop()
	a.Stop()
	pre.Stop()
	if act := s.Active(); len(act) != 0 {
		t.Fatalf("Active after Stop = %v", act)
	}

	var nilSpans *Spans
	nilSpans.TrackActive()
	if nilSpans.Active() != nil {
		t.Fatal("nil Spans Active != nil")
	}
}
