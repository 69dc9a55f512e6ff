package driver

import (
	"math"
	"testing"

	"jumanji/internal/bank"
	"jumanji/internal/core"
	"jumanji/internal/topo"
	"jumanji/internal/trace"
)

// smallMachine keeps detailed runs fast: 2x2 mesh, 256 KB 8-way banks.
func smallMachine() core.Machine {
	return core.Machine{Mesh: topo.NewMesh(2, 2), BankBytes: 256 << 10, WaysPerBank: 8}
}

func wsApp(name string, vm core.VMID, c topo.TileID, lines uint64, seed int64) App {
	base := uint64(c+1) << 32
	return App{
		Name: name, VM: vm, Core: c,
		Gen:              trace.NewWorkingSet(base, lines, 64, seed),
		Base:             base,
		Footprint:        lines * 64,
		AccessesPerEpoch: 60000,
	}
}

func TestNewValidation(t *testing.T) {
	m := smallMachine()
	good := Config{Machine: m, Placer: core.JigsawPlacer{}, Apps: []App{wsApp("a", 0, 0, 512, 1)}}
	if _, err := New(good); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Machine: m, Placer: core.JigsawPlacer{}},
		{Machine: m, Apps: []App{wsApp("a", 0, 0, 512, 1)}},
		{Machine: m, Placer: core.JigsawPlacer{}, Apps: []App{{Name: "x", AccessesPerEpoch: 1}}},
		{Machine: m, Placer: core.JigsawPlacer{}, Apps: []App{wsApp("a", 0, 0, 512, 1), wsApp("b", 0, 0, 512, 2)}},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestWorkingSetFitsAfterProfiling(t *testing.T) {
	// One app whose working set (512 lines = 32 KB) easily fits: once the
	// UMONs have profiled it and the placer allocates, the measured LLC
	// miss ratio must collapse to ~0.
	m := smallMachine()
	d, err := New(Config{
		Machine:          m,
		Placer:           core.JigsawPlacer{},
		Apps:             []App{wsApp("ws", 0, 0, 512, 1)},
		UMONSamplePeriod: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	var last EpochStats
	for e := 0; e < 4; e++ {
		last = d.RunEpoch()
	}
	s := last.PerApp[0]
	if s.LLCMissRatio > 0.02 {
		t.Errorf("steady-state LLC miss ratio %.3f, want ~0 (working set fits)", s.LLCMissRatio)
	}
	if s.Accesses == 0 || s.L1Hits == 0 {
		t.Errorf("no activity recorded: %+v", s)
	}
}

func TestUMONCurveMatchesOracle(t *testing.T) {
	// The UMON-measured curve for a uniform working set should be ~0 above
	// the working-set size and high at tiny capacities, matching the
	// analytic oracle.
	m := smallMachine()
	lines := uint64(4096) // 256 KB working set
	d, err := New(Config{
		Machine:          m,
		Placer:           core.JigsawPlacer{},
		Apps:             []App{wsApp("ws", 0, 0, lines, 3)},
		UMONSamplePeriod: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 6; e++ {
		d.RunEpoch()
	}
	curve := d.MeasuredCurve(0)
	ws := float64(lines * 64)
	above := curve.Eval(2 * ws)
	below := curve.Eval(ws / 8)
	oracleBelow, _ := trace.MissRatioOracle(trace.NewWorkingSet(0, lines, 64, 1), uint64(ws/8))
	if above > 0.1 {
		t.Errorf("measured miss ratio above WS = %.3f, want ~0", above)
	}
	if math.Abs(below-oracleBelow) > 0.15 {
		t.Errorf("measured miss ratio at WS/8 = %.3f, oracle %.3f", below, oracleBelow)
	}
}

func TestDNUCAHopsBeatSNUCA(t *testing.T) {
	// The same app under nearest-first vs striped placement: measured NoC
	// distance must be smaller for D-NUCA — the Fig. 8 mechanism, observed
	// end-to-end in the detailed hierarchy.
	run := func(nearest bool) float64 {
		m := smallMachine()
		app := wsApp("lat", 0, 0, 2048, 5)
		app.LatencyCritical = true
		app.LatSize = 128 << 10
		d, err := New(Config{
			Machine: m,
			Placer:  core.FixedPlacer{Nearest: nearest},
			Apps:    []App{app},
		})
		if err != nil {
			t.Fatal(err)
		}
		var last EpochStats
		for e := 0; e < 3; e++ {
			last = d.RunEpoch()
		}
		return last.PerApp[0].AvgHops
	}
	dnuca, snuca := run(true), run(false)
	if dnuca >= snuca {
		t.Errorf("D-NUCA hops %.2f not below S-NUCA %.2f", dnuca, snuca)
	}
	if dnuca > 0.1 {
		t.Errorf("128 KB in the nearest 256 KB bank should be ~0 hops, got %.2f", dnuca)
	}
}

func TestJumanjiIsolationEndToEnd(t *testing.T) {
	// Two VMs under JumanjiPlacer in the detailed hierarchy: after any
	// epoch, no LLC bank holds lines from both VMs.
	m := smallMachine()
	apps := []App{
		wsApp("vm0-a", 0, 0, 1024, 1),
		wsApp("vm0-b", 0, 1, 1024, 2),
		wsApp("vm1-a", 1, 2, 1024, 3),
		wsApp("vm1-b", 1, 3, 1024, 4),
	}
	d, err := New(Config{Machine: m, Placer: core.JumanjiPlacer{}, Apps: apps})
	if err != nil {
		t.Fatal(err)
	}
	var pl *core.Placement
	for e := 0; e < 3; e++ {
		d.RunEpoch()
		pl = d.Placement()
		in := &core.Input{Machine: m, LatSizes: map[core.AppID]float64{}}
		for _, a := range apps {
			in.Apps = append(in.Apps, core.AppSpec{Name: a.Name, VM: a.VM, Core: a.Core})
		}
		if !pl.IsVMIsolated(in) {
			t.Fatalf("epoch %d: placement not VM-isolated", e)
		}
	}
	// Physically verify: occupancy of each VM's partitions per bank.
	for b := 0; b < m.Banks(); b++ {
		bankRef := d.hier.LLCBank(topo.TileID(b))
		vmsPresent := map[core.VMID]bool{}
		for i, a := range apps {
			if bankRef.OccupancyOf(bank.PartitionID(i)) > 0 {
				vmsPresent[a.VM] = true
			}
		}
		if len(vmsPresent) > 1 {
			t.Errorf("bank %d physically holds lines from %d VMs", b, len(vmsPresent))
		}
	}
}

func TestPlacementChangeInvalidates(t *testing.T) {
	// Alternate between two placers that put the app in different banks:
	// the coherence walk must invalidate moved lines.
	m := smallMachine()
	app := wsApp("mover", 0, 0, 1024, 9)
	app.LatencyCritical = true
	app.LatSize = 64 << 10

	dNear, err := New(Config{Machine: m, Placer: core.FixedPlacer{Nearest: true}, Apps: []App{app}})
	if err != nil {
		t.Fatal(err)
	}
	dNear.RunEpoch()

	// Swap the placer by hand: install a striped placement and check the
	// walk dropped lines from the old home bank.
	in := dNear.buildInput()
	striped := core.PlaceWith(core.FixedPlacer{Nearest: false}, in, nil)
	invalidated := dNear.install(striped)
	if invalidated == 0 {
		t.Error("moving the allocation should invalidate lines (coherence walk)")
	}
}

func TestValidateModelAgainstDetailed(t *testing.T) {
	// The cross-check behind using the epoch model for the big sweeps:
	// UMON-curve predictions and placement distances must agree with the
	// detailed hierarchy within modest tolerances for all four canonical
	// reuse patterns.
	for _, p := range []core.Placer{core.JumanjiPlacer{}, core.JigsawPlacer{}} {
		d, err := New(StandardValidationConfig(p))
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		rows := ValidateDriver(d, 6)
		for _, r := range rows {
			if r.LLCShare < 0.02 {
				// Private caches filter essentially everything: the LLC
				// miss ratio is a ratio of near-zeros with no performance
				// weight. Distance still matters, so keep that check.
				if r.HopsError > 0.5 {
					t.Errorf("%s/%s: hops prediction off by %.2f", p.Name(), r.App, r.HopsError)
				}
				continue
			}
			if r.MissError > 0.2 {
				t.Errorf("%s/%s: miss prediction off by %.3f (pred %.3f, meas %.3f)",
					p.Name(), r.App, r.MissError, r.PredictedMiss, r.MeasuredMiss)
			}
			if r.HopsError > 0.5 {
				t.Errorf("%s/%s: hops prediction off by %.2f (pred %.2f, meas %.2f)",
					p.Name(), r.App, r.HopsError, r.PredictedHops, r.MeasuredHops)
			}
		}
	}
}
