package core

import (
	"math/rand"
	"testing"

	"jumanji/internal/topo"
)

// fleetInput builds a datacenter-shaped workload: many VMs of 1 LC + nBatch
// apps on a big mesh, enough that the S-NUCA designs' fixed way quanta no
// longer fit.
func fleetInput(t *testing.T, dim, nVMs int) *Input {
	t.Helper()
	m := Machine{Mesh: topo.NewMesh(dim, dim), BankBytes: 1 << 20, WaysPerBank: 32}
	return testWorkloadOn(m, nVMs, 4, rand.New(rand.NewSource(7)))
}

// TestStaticFleetScale pins the fleet-scale fallback: with more than seven
// latency-critical apps the historical 4-ways-each allocation exceeds the
// 32-way associativity and used to panic; now the available ways split
// equally and the placement stays valid.
func TestStaticFleetScale(t *testing.T) {
	in := fleetInput(t, 16, 28) // 28 LC apps × 4 ways = 112 ≫ 32
	pl := PlaceWith(StaticPlacer{}, in, nil)
	if err := pl.Validate(in); err != nil {
		t.Fatal(err)
	}
	// Every LC app gets the same positive allocation, below the historical
	// 4-way stripe.
	lat := in.LatCritApps()
	fourWays := 4 * in.Machine.WayBytes() * float64(in.Machine.Banks())
	want := pl.TotalOf(lat[0])
	for _, app := range lat {
		got := pl.TotalOf(app)
		if got <= 0 || got >= fourWays {
			t.Fatalf("LC app %d allocation %g, want in (0, %g)", app, got, fourWays)
		}
		if got != want {
			t.Fatalf("unequal LC allocations: %g vs %g", got, want)
		}
	}
	// Batch still has its reserved way.
	for _, app := range in.BatchApps() {
		if pl.TotalOf(app) <= 0 {
			t.Fatalf("batch app %d starved", app)
		}
	}
}

// TestStaticSmallUnchanged pins byte-identity of the historical path: on the
// paper machine the fallback must not engage.
func TestStaticSmallUnchanged(t *testing.T) {
	in := testWorkload(4, 4, rand.New(rand.NewSource(7)))
	pl := PlaceWith(StaticPlacer{}, in, nil)
	fourWays := 4 * in.Machine.WayBytes() * float64(in.Machine.Banks())
	for _, app := range in.LatCritApps() {
		if got := pl.TotalOf(app); got != fourWays {
			t.Fatalf("LC allocation %g, want exactly the historical %g", got, fourWays)
		}
	}
}

// TestVMPartFleetScale pins VM-Part's fallback: when batch VMs outnumber the
// spare ways, the per-VM one-way minimum used to make lookahead panic; now
// the quantum scales down and every VM keeps a positive guaranteed share.
func TestVMPartFleetScale(t *testing.T) {
	in := fleetInput(t, 16, 28)
	// Inflate the controllers' targets so the batch pool shrinks well below
	// 28 ways (the regime the big-mesh harness hits).
	for id := range in.LatSizes {
		in.LatSizes[id] = 8 << 20
	}
	pl := PlaceWith(VMPartPlacer{}, in, nil)
	if err := pl.Validate(in); err != nil {
		t.Fatal(err)
	}
	for _, app := range in.BatchApps() {
		if pl.TotalOf(app) <= 0 {
			t.Fatalf("batch app %d starved", app)
		}
	}
}
