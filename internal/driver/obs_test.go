package driver

import (
	"testing"

	"jumanji/internal/core"
	"jumanji/internal/obs"
)

// TestDriverObservability runs a driver instrumented with a metrics
// registry and checks that the registry's per-bank miss counters reconcile
// with the hierarchy's own totals (the cmd/validate invariant).
func TestDriverObservability(t *testing.T) {
	reg := obs.NewRegistry()
	d, err := New(Config{
		Machine: smallMachine(),
		Placer:  core.JigsawPlacer{},
		Apps: []App{
			wsApp("a", 0, 0, 1024, 1),
			wsApp("b", 1, 1, 4096, 2),
		},
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 3; e++ {
		st := d.RunEpoch()
		if len(st.PerApp) != 2 {
			t.Fatalf("epoch %d: %d app stats", e, len(st.PerApp))
		}
	}
	if err := d.CheckCounters(); err != nil {
		t.Fatalf("counter cross-check: %v", err)
	}
	if reg.Counter("cache.mem.loads").Value() == 0 {
		t.Fatal("instrumented run counted zero memory loads")
	}
}

// TestCheckCountersRequiresRegistry documents that the cross-check cannot
// pass vacuously on an uninstrumented driver.
func TestCheckCountersRequiresRegistry(t *testing.T) {
	d, err := New(Config{
		Machine: smallMachine(),
		Placer:  core.JigsawPlacer{},
		Apps:    []App{wsApp("a", 0, 0, 512, 1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	d.RunEpoch()
	if err := d.CheckCounters(); err == nil {
		t.Fatal("CheckCounters passed without a registry")
	}
}
