package core

import (
	"fmt"
	"math/rand"
	"testing"

	"jumanji/internal/topo"
)

// benchPlacement builds the canonical 4-VM case-study input and a Jumanji
// placement over it — the shape every epoch of the big sweeps evaluates.
func benchPlacement(b *testing.B) (*Input, *Placement, *Placement) {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	in := testWorkload(4, 4, rng)
	prev := PlaceWith(JumanjiPlacer{}, in, nil)
	// Perturb the controller targets so prev and cur differ (MovedFraction
	// has real work to do).
	for id := range in.LatSizes {
		in.LatSizes[id] *= 1.5
	}
	cur := PlaceWith(JumanjiPlacer{}, in, nil)
	return in, cur, prev
}

// BenchmarkPlacementOps measures one epoch's worth of Placement accessor
// traffic: per app the epoch model reads TotalOf, MeanWays, AvgHops and
// MovedFraction; per bank the validator reads BankUsed; and each bank's
// sharing VMs are listed into a fresh slice (AppendVMsSharingBank with a nil
// dst), the 20 allocs/op. allocs/op is the headline number — the
// dense-layout refactor's acceptance bar is a large reduction here.
func BenchmarkPlacementOps(b *testing.B) {
	in, cur, prev := benchPlacement(b)
	var sink float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for a := range in.Apps {
			app := AppID(a)
			sink += cur.TotalOf(app)
			sink += cur.MeanWays(app)
			sink += cur.AvgHops(app, in.Apps[a].Core)
			sink += cur.MovedFraction(app, prev)
		}
		for bk := 0; bk < in.Machine.Banks(); bk++ {
			id := topo.TileID(bk)
			sink += cur.BankUsed(id)
			sink += float64(len(cur.AppendVMsSharingBank(nil, in, id)))
		}
	}
	_ = sink
}

// BenchmarkPlacerPlace measures a full Jumanji reconfiguration — the
// per-epoch cost the scratch-reuse protocol amortizes — across topology
// sizes. The 5x4 sub-benchmark is the paper machine; the big meshes compare
// the flat placer (superlinear in banks×apps) against the hierarchical
// ShardedPlacer with default regions, whose cost is near-linear in regions.
// The ISSUE 8 acceptance bar: sharded 16x16 is ≥5× faster than flat 16x16.
func BenchmarkPlacerPlace(b *testing.B) {
	runOn := func(b *testing.B, m Machine, p Placer) {
		rng := rand.New(rand.NewSource(42))
		nVMs := m.Banks() / 9
		if nVMs < 4 {
			nVMs = 4
		}
		in := testWorkloadOn(m, nVMs, 4, rng)
		pl := NewPlacement(m)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.PlaceInto(in, pl)
		}
	}
	b.Run("5x4", func(b *testing.B) {
		runOn(b, DefaultMachine(), JumanjiPlacer{})
	})
	for _, dim := range []int{8, 12, 16} {
		m := Machine{Mesh: topo.NewMesh(dim, dim), BankBytes: 1 << 20, WaysPerBank: 32}
		name := fmt.Sprintf("%dx%d", dim, dim)
		b.Run(name+"/flat", func(b *testing.B) {
			runOn(b, m, JumanjiPlacer{})
		})
		b.Run(name+"/sharded", func(b *testing.B) {
			runOn(b, m, ShardedPlacer{})
		})
	}
}
