package main

import (
	"fmt"
	"math/rand"
	"testing"

	"jumanji/internal/core"
	"jumanji/internal/system"
	"jumanji/internal/topo"
)

// TestTimedPlacerParity proves the traced run measures the same program:
// system.Run with every design wrapped in the timing placer returns a
// RunResult bit-identical to the unwrapped run, on the paper's 5x4 chip and
// on an 8x8 chip with sharded D-NUCA placement.
func TestTimedPlacerParity(t *testing.T) {
	cases := []struct {
		name    string
		mesh    topo.Mesh
		placers []core.Placer
		build   func(core.Machine, *rand.Rand) (system.Workload, error)
	}{
		{"5x4", topo.NewMesh(5, 4),
			append(mainDesigns(), core.JumanjiPlacer{Insecure: true}, core.IdealBatchPlacer{}),
			func(m core.Machine, rng *rand.Rand) (system.Workload, error) {
				return system.CaseStudyWorkload(m, "xapian", rng, true)
			}},
		{"8x8-sharded", topo.NewMesh(8, 8),
			[]core.Placer{core.StaticPlacer{}, core.AdaptivePlacer{}, core.VMPartPlacer{},
				core.ShardedPlacer{Inner: core.JigsawPlacer{}}, core.ShardedPlacer{Inner: core.JumanjiPlacer{}},
				core.ShardedPlacer{Inner: core.JumanjiPlacer{Insecure: true}}},
			func(m core.Machine, rng *rand.Rand) (system.Workload, error) {
				return system.DatacenterWorkload(m, rng, true)
			}},
	}
	for _, tc := range cases {
		cfg := system.DefaultConfig()
		cfg.Machine.Mesh = tc.mesh
		cfg.Seed = 3
		wl, err := tc.build(cfg.Machine, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range tc.placers {
			want := system.Run(cfg, wl, p, 12, 4)
			st := &placeStats{}
			got := system.Run(cfg, wl, timedPlacer{inner: p, st: st}, 12, 4)
			if len(st.us) == 0 {
				t.Errorf("%s/%s: the wrapper timed no placement", tc.name, p.Name())
			}
			// %#v prints every float in its shortest round-trip form, so
			// equal strings mean equal bits (NaN "no sample" markers
			// included, which reflect.DeepEqual would call unequal).
			if g, w := fmt.Sprintf("%#v", *got), fmt.Sprintf("%#v", *want); g != w {
				t.Errorf("%s/%s: wrapped run differs from the plain run", tc.name, p.Name())
			}
		}
	}
}

// TestRedriveReproducesFigure checks that the traced run's re-drive builds
// the figure's own cells (workloads, seeds, designs): its Jumanji speedup
// equals the one harness.Fig13 renders, bit for bit.
func TestRedriveReproducesFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs Fig. 13 twice")
	}
	f := &figureWorkload{name: "test", fig: 13, mixes: 1}
	var sink discard
	want, err := f.render(&sink, f.options(2))
	if err != nil {
		t.Fatal(err)
	}
	p, err := f.protocol(2)
	if err != nil {
		t.Fatal(err)
	}
	if got := redrive(p).speedup; got != want {
		t.Fatalf("re-drive speedup %v, figure %v", got, want)
	}
}

type discard struct{}

func (discard) Write(b []byte) (int, error) { return len(b), nil }
