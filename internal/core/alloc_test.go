package core

import (
	"math/rand"
	"testing"

	"jumanji/internal/obs"
	"jumanji/internal/topo"
)

// Allocation-regression guards for the dense Placement accessors the epoch
// loop reads every epoch. All of them must be zero-allocation: the dense
// layout exists precisely so the hot path never touches the heap. Run via
// `go test -run AllocGuard -count=1`.

var (
	allocSinkF float64
	allocSinkI int
	allocSinkS []float64
)

// allocGuardPlacement builds a populated placement pair (cur, prev) over a
// small workload, matching what runner.go holds across reconfigurations.
func allocGuardPlacement() (*Input, *Placement, *Placement) {
	rng := rand.New(rand.NewSource(11))
	in := testWorkload(4, 4, rng)
	cur, prev := NewPlacement(in.Machine), NewPlacement(in.Machine)
	for _, pl := range []*Placement{cur, prev} {
		for i := range in.Apps {
			for j := 0; j < 4; j++ {
				b := topo.TileID(rng.Intn(in.Machine.Banks()))
				pl.Add(AppID(i), b, rng.Float64()*in.Machine.WayBytes())
			}
		}
	}
	return in, cur, prev
}

func TestAllocGuardPlacementAccessors(t *testing.T) {
	in, pl, prev := allocGuardPlacement()
	app := AppID(1)
	core := in.Apps[app].Core
	cases := []struct {
		name string
		fn   func()
	}{
		{"TotalOf", func() { allocSinkF = pl.TotalOf(app) }},
		{"BankUsed", func() { allocSinkF = pl.BankUsed(3) }},
		{"AvgHops", func() { allocSinkF = pl.AvgHops(app, core) }},
		{"MeanWays", func() { allocSinkF = pl.MeanWays(app) }},
		{"MovedFraction", func() { allocSinkF = pl.MovedFraction(app, prev) }},
		{"BankCount", func() { allocSinkI = pl.BankCount(app) }},
		{"AllocRow", func() { allocSinkS = pl.AllocRow(app) }},
	}
	for _, c := range cases {
		if allocs := testing.AllocsPerRun(200, c.fn); allocs != 0 {
			t.Errorf("%s allocated %v times per call, want 0", c.name, allocs)
		}
	}
}

// TestAllocGuardAppsOf guards the Input accessors the placers call per epoch:
// with reused dst slices the Append variants must be allocation-free.
func TestAllocGuardAppsOf(t *testing.T) {
	in, _, _ := allocGuardPlacement()
	var (
		vms        []VMID
		lat, batch []AppID
	)
	// Warm to full capacity.
	vms = in.AppendVMs(vms[:0])
	for _, vm := range vms {
		lat, batch = in.AppendAppsOf(lat[:0], batch[:0], vm)
	}
	lat = in.AppendLatCritApps(lat[:0])
	batch = in.AppendBatchApps(batch[:0])
	allocs := testing.AllocsPerRun(200, func() {
		vms = in.AppendVMs(vms[:0])
		for _, vm := range vms {
			lat, batch = in.AppendAppsOf(lat[:0], batch[:0], vm)
		}
		lat = in.AppendLatCritApps(lat[:0])
		batch = in.AppendBatchApps(batch[:0])
	})
	if allocs != 0 {
		t.Errorf("Append accessors with reused scratch allocated %v times per sweep, want 0", allocs)
	}
}

// TestAllocGuardPlace guards the whole placement hot path: with a warmed
// scratch pool, a Jumanji reconfiguration should allocate only a handful of
// times (retained map growth aside).
func TestAllocGuardPlace(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; guarded by the non-race CI step")
	}
	in, pl, _ := allocGuardPlacement()
	p := JumanjiPlacer{}
	p.PlaceInto(in, pl) // warm the placeScratch pool
	allocs := testing.AllocsPerRun(50, func() {
		p.PlaceInto(in, pl)
	})
	// The steady-state budget: pool Get/Put plumbing plus map internals may
	// allocate a few times, but the old per-epoch behaviour (hundreds of
	// slices and maps) must not come back.
	const maxAllocs = 12
	if allocs > maxAllocs {
		t.Errorf("JumanjiPlacer.PlaceInto allocated %v times per call, want <= %d", allocs, maxAllocs)
	}
}

// TestAllocGuardProvenance pins the provenance sink's zero-overhead
// contract: with the sink disabled (in.Prov == nil, the default), the
// instrumented placers must stay within the same allocation budget as
// before instrumentation — every record-building branch is behind
// in.Prov.Enabled(), so the disabled path never builds a candidate list,
// never formats a string, and never touches the heap for provenance.
func TestAllocGuardProvenance(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; guarded by the non-race CI step")
	}
	in, pl, _ := allocGuardPlacement()
	if in.Prov != nil {
		t.Fatal("alloc-guard workload unexpectedly has a provenance recorder")
	}
	for _, placer := range []Placer{JumanjiPlacer{}, JigsawPlacer{}} {
		placer := placer
		placer.PlaceInto(in, pl) // warm the scratch pool
		allocs := testing.AllocsPerRun(50, func() {
			placer.PlaceInto(in, pl)
		})
		const maxAllocs = 12 // same budget as TestAllocGuardPlace
		if allocs > maxAllocs {
			t.Errorf("%s.PlaceInto with nil provenance recorder allocated %v times per call, want <= %d",
				placer.Name(), allocs, maxAllocs)
		}
	}

	// The nil recorder's methods themselves must be free: the placers call
	// Enabled() unconditionally, and a disabled-but-called record method
	// (a bug, but a cheap one to guard) must not allocate either.
	var r *obs.ProvRecorder
	allocs := testing.AllocsPerRun(200, func() {
		if r.Enabled() {
			allocSinkI++
		}
		r.Decision(obs.StageVMBanks, 1, -1, false, 1)
		r.Eliminated(obs.StageVMBanks, 1, -1, 2, 3, 0, obs.ElimCapacity)
		r.Placed(obs.StageVMBanks, 1, -1, 2, 3, 1)
		r.Valve(obs.ValveShrinkLatSizes, -1, 0, 0.9, "")
		r.StartEpoch(0, 0)
		r.Attempt()
		r.Flush()
	})
	if allocs != 0 {
		t.Errorf("nil ProvRecorder methods allocated %v times per call, want 0", allocs)
	}
}

func TestAllocGuardAppendAccessors(t *testing.T) {
	in, pl, _ := allocGuardPlacement()
	// Warm the scratch slices to full capacity once; steady-state reuse with
	// dst[:0] must then be allocation-free.
	apps := pl.AppendAppsInBank(nil, 0)
	vms := pl.AppendVMsSharingBank(nil, in, 0)
	for b := 0; b < in.Machine.Banks(); b++ {
		apps = pl.AppendAppsInBank(apps[:0], topo.TileID(b))
		vms = pl.AppendVMsSharingBank(vms[:0], in, topo.TileID(b))
	}
	allocs := testing.AllocsPerRun(200, func() {
		for b := 0; b < in.Machine.Banks(); b++ {
			apps = pl.AppendAppsInBank(apps[:0], topo.TileID(b))
		}
	})
	if allocs != 0 {
		t.Errorf("AppendAppsInBank with reused scratch allocated %v times per sweep, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(200, func() {
		for b := 0; b < in.Machine.Banks(); b++ {
			vms = pl.AppendVMsSharingBank(vms[:0], in, topo.TileID(b))
		}
	})
	if allocs != 0 {
		t.Errorf("AppendVMsSharingBank with reused scratch allocated %v times per sweep, want 0", allocs)
	}
}
