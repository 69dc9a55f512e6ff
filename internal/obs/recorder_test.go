package obs

import (
	"testing"

	"jumanji/internal/obs/tsdb"
)

func TestRecorderCounterDeltas(t *testing.T) {
	reg := NewRegistry()
	db := tsdb.New(16)
	c := reg.Counter("system.epochs")
	r := NewRecorder(reg, db)
	for e := 0; e < 3; e++ {
		c.Add(uint64(e + 1)) // 1, 2, 3
		r.Sample(e)
	}
	s := db.Lookup("system.epochs")
	if s.Len() != 3 {
		t.Fatalf("len = %d", s.Len())
	}
	samples := db.DumpSeries("system.epochs").Samples
	for i, want := range []float64{1, 2, 3} {
		if got := samples[i]; got.Value != want || got.Epoch != int32(i) {
			t.Errorf("sample %d = %+v, want value %g", i, got, want)
		}
	}
}

func TestRecorderBaselineFromCurrentValues(t *testing.T) {
	// A registry shared across sequential runs: the second run's recorder
	// must not see the first run's totals as an epoch-0 delta.
	reg := NewRegistry()
	c := reg.Counter("system.epochs")
	c.Add(40) // a previous run's total
	db := tsdb.New(16)
	r := NewRecorder(reg, db)
	c.Inc()
	r.Sample(0)
	if got := db.DumpSeries("system.epochs").Samples[0].Value; got != 1 {
		t.Fatalf("epoch-0 delta = %g, want 1 (baseline not taken)", got)
	}
}

func TestRecorderGauge(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("alloc")
	unset := reg.Gauge("never_set")
	_ = unset
	db := tsdb.New(16)
	r := NewRecorder(reg, db)
	r.Sample(0) // g not yet set: no sample
	g.Set(2.5)
	r.Sample(1)
	g.Set(3.5)
	r.Sample(2)
	s := db.DumpSeries("alloc").Samples
	if len(s) != 2 || s[0] != (tsdb.Sample{Epoch: 1, Value: 2.5}) || s[1] != (tsdb.Sample{Epoch: 2, Value: 3.5}) {
		t.Fatalf("gauge series: %+v", db.DumpSeries("alloc"))
	}
	if db.Lookup("never_set").Len() != 0 {
		t.Fatal("never-set gauge produced samples")
	}
}

func TestRecorderHistogramQuantiles(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", 0, 10, 10)
	db := tsdb.New(16)
	r := NewRecorder(reg, db)

	// Epoch 0: 100 uniform observations, 10 per bin.
	for b := 0; b < 10; b++ {
		for j := 0; j < 10; j++ {
			h.Observe(float64(b) + 0.5)
		}
	}
	r.Sample(0)
	// Nearest-rank with in-bin interpolation: p50 → rank 50, end of bin 4
	// (5.0); p95 → rank 95, halfway through bin 9 (9.5); p99 → 9.9.
	for name, want := range map[string]float64{"lat.p50": 5.0, "lat.p95": 9.5, "lat.p99": 9.9} {
		got := db.DumpSeries(name).Samples[0].Value
		if diff := got - want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}

	// Epoch 1: no new observations — a gap, not a repeated value.
	r.Sample(1)
	if db.Lookup("lat.p95").Len() != 1 {
		t.Fatal("quantile sampled with no new observations")
	}

	// Epoch 2: only the deltas count. One observation at 1.5.
	h.Observe(1.5)
	r.Sample(2)
	got := db.DumpSeries("lat.p95").Samples[1]
	if got.Epoch != 2 || got.Value != 2.0 {
		t.Errorf("delta quantile = %+v, want epoch 2 value 2 (upper edge of bin 1)", got)
	}
}

func TestRecorderBindsMidRunMetrics(t *testing.T) {
	reg := NewRegistry()
	db := tsdb.New(16)
	r := NewRecorder(reg, db)
	r.Sample(0)
	late := reg.Counter("late")
	late.Add(7)
	r.Sample(1)
	s := db.DumpSeries("late").Samples
	if len(s) != 1 || s[0] != (tsdb.Sample{Epoch: 1, Value: 7}) {
		t.Fatalf("late-bound counter series: %+v", db.DumpSeries("late"))
	}
}

func TestRecorderNilSafe(t *testing.T) {
	if NewRecorder(nil, tsdb.New(4)) != nil {
		t.Fatal("recorder without registry")
	}
	if NewRecorder(NewRegistry(), nil) != nil {
		t.Fatal("recorder without store")
	}
	var r *Recorder
	r.Sample(0) // must not panic
}

// TestAllocGuardRecorder pins the tentpole's alloc promise: after the
// first sample binds every metric, sampling allocates nothing.
func TestAllocGuardRecorder(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c")
	g := reg.Gauge("g")
	h := reg.Histogram("h", 0, 2, 40)
	r := NewRecorder(reg, tsdb.New(256))
	epoch := 0
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		g.Set(float64(epoch))
		h.Observe(0.5)
		h.Observe(1.5)
		r.Sample(epoch)
		epoch++
	})
	if allocs != 0 {
		t.Fatalf("steady-state Sample allocates %v per epoch, want 0", allocs)
	}
}
