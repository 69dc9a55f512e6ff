package jumanji

import (
	"bytes"
	"testing"

	"jumanji/internal/obs"
	"jumanji/internal/obs/tsdb"
)

// TestParallelTailVsAllocationSinks pins the Fig. 8 sweep to the cell
// protocol for every recording sink: each sweep point records into private
// sinks merged back in point order, so all five outputs are byte-identical
// between one worker and four. A cell handed any of the caller's shared
// sinks instead races under -race and interleaves its records.
func TestParallelTailVsAllocationSinks(t *testing.T) {
	allocs := []float64{0.5, 1, 2, 3, 4, 6}
	run := func(parallel int) map[string]string {
		var evBuf, trBuf, provBuf bytes.Buffer
		opts := DefaultOptions()
		opts.Epochs, opts.Warmup, opts.Parallel = 12, 4, parallel
		opts.Sinks = obs.Sinks{
			Metrics: obs.NewRegistry(),
			Events:  obs.NewEventLog(&evBuf),
			Trace:   obs.NewTrace(&trBuf),
			TS:      tsdb.New(tsdb.DefaultCapacity),
			Prov:    obs.NewEventLog(&provBuf),
		}
		if _, err := TailVsAllocation(opts, "xapian", allocs); err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		for _, err := range []error{opts.Events.Err(), opts.Prov.Err(), opts.Trace.Close()} {
			if err != nil {
				t.Fatalf("parallel=%d: %v", parallel, err)
			}
		}
		var mBuf, tsBuf bytes.Buffer
		if err := opts.Metrics.WriteText(&mBuf); err != nil {
			t.Fatal(err)
		}
		if err := opts.TS.Write(&tsBuf); err != nil {
			t.Fatal(err)
		}
		return map[string]string{
			"metrics": mBuf.String(), "events": evBuf.String(), "trace": trBuf.String(),
			"tsdb": tsBuf.String(), "prov": provBuf.String(),
		}
	}
	serial, fanned := run(1), run(4)
	for _, sink := range []string{"metrics", "events", "trace", "tsdb", "prov"} {
		if serial[sink] == "" {
			t.Errorf("%s recorded nothing", sink)
		}
		if serial[sink] != fanned[sink] {
			t.Errorf("%s differs between parallel=1 (%d bytes) and parallel=4 (%d bytes)",
				sink, len(serial[sink]), len(fanned[sink]))
		}
	}
}
