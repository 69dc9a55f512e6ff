package obs

import (
	"bytes"
	"encoding/gob"
	"testing"

	"jumanji/internal/obs/tsdb"
)

// gobState encodes a cell state the way the sweep journal stores it.
func gobState(tb testing.TB, st CellState) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzCellFromState feeds arbitrary journal payloads through the resume
// read-back path: gob bytes decode into a CellState, and CellFromState must
// reject anything no cell could have written with an error, never a panic,
// so the sweep engine re-runs the cell instead of crashing the resume.
func FuzzCellFromState(f *testing.F) {
	full := Sinks{
		Metrics: NewRegistry(), Events: NewEventLog(&bytes.Buffer{}), Trace: NewTrace(nil),
		TS: tsdb.New(8), Prov: NewEventLog(&bytes.Buffer{}),
	}.NewCell()
	populate(full)
	st, err := full.State()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(gobState(f, st))
	f.Add(gobState(f, CellState{}))
	for _, dup := range [][]MetricState{
		{{Name: "x", Kind: KindCounter, Count: 1}, {Name: "x", Kind: KindGauge, Set: true}},
		{{Name: "h", Kind: KindHistogram, Lo: 0, Hi: 1, Bins: []uint64{1}},
			{Name: "h", Kind: KindHistogram, Lo: 0, Hi: 2, Bins: []uint64{1, 2}}},
	} {
		f.Add(gobState(f, CellState{Metrics: dup}))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		var st CellState
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&st); err != nil {
			return
		}
		CellFromState(st) //nolint:errcheck // only a panic fails
	})
}

// TestCellFromStateRejectsRepeatedMetric pins the defect FuzzCellFromState
// exists for: a state repeating a metric name used to panic inside the
// registry instead of failing the replay.
func TestCellFromStateRejectsRepeatedMetric(t *testing.T) {
	for _, ms := range [][]MetricState{
		{{Name: "x", Kind: KindCounter}, {Name: "x", Kind: KindGauge}},
		{{Name: "h", Kind: KindHistogram, Hi: 1, Bins: []uint64{0}},
			{Name: "h", Kind: KindHistogram, Hi: 2, Bins: []uint64{0, 0}}},
		{{Name: "c", Kind: KindCounter}, {Name: "c", Kind: KindCounter}},
		{{Name: "", Kind: KindCounter}},
	} {
		if _, err := CellFromState(CellState{Metrics: ms}); err == nil {
			t.Errorf("CellFromState(%+v) accepted an invalid registry", ms)
		}
	}
}

// FuzzDecodeEvents feeds arbitrary bytes to the event-log readers cmd/report
// and the resume path use; malformed input must surface as an error.
func FuzzDecodeEvents(f *testing.F) {
	c := Sinks{Events: NewEventLog(&bytes.Buffer{})}.NewCell()
	populate(c)
	f.Add(c.eventsBuf.Bytes())
	f.Add([]byte(`{"v":3,"seq":1,"type":"run_end","data":{}}` + "\n\n" + `{"v":2}`))
	f.Add([]byte("{\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		DecodeEvents(bytes.NewReader(data), func(Event) error { return nil }) //nolint:errcheck // only a panic fails
		ValidateEventLog(data)                                                //nolint:errcheck
	})
}
