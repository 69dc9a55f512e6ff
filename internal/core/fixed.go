package core

import (
	"jumanji/internal/obs"
	"jumanji/internal/topo"
)

// FixedPlacer pins each latency-critical application to a fixed allocation
// (Input.LatSizes, ignoring feedback), placed either striped across all
// banks (S-NUCA way-partitioning, Fig. 8's red line) or packed into the
// nearest banks (D-NUCA, Fig. 8's blue line). Batch applications share the
// remaining capacity unpartitioned, as in the Static design. It drives the
// Fig. 8 allocation sweep and the Fig. 12 fixed-partition experiment.
type FixedPlacer struct {
	// Nearest selects D-NUCA packing for latency-critical allocations;
	// false stripes them S-NUCA style.
	Nearest bool
}

// Name implements Placer.
func (p FixedPlacer) Name() string {
	if p.Nearest {
		return "Fixed (D-NUCA)"
	}
	return "Fixed (S-NUCA)"
}

// PlaceInto implements Placer.
func (p FixedPlacer) PlaceInto(in *Input, pl *Placement) *Placement {
	mustValidate(in)
	pl.Reset(in.Machine)
	s := getPlaceScratch(in.Machine)
	defer putPlaceScratch(s)
	balance := s.balance
	usedBytes := 0.0
	if p.Nearest {
		res := latCritPlace(in, pl, balance, false, s)
		if res.unplaced > 0 {
			panic("core: fixed allocation exceeds LLC capacity")
		}
		for _, app := range s.latApps {
			usedBytes += pl.TotalOf(app)
		}
	} else {
		for _, app := range in.LatCritApps() {
			size := in.LatSizes[app]
			if min := in.Machine.WayBytes(); size < min {
				size = min
			}
			stripe(in, pl, app, size)
			usedBytes += size
		}
	}
	batch := in.BatchApps()
	if len(batch) == 0 {
		return pl
	}
	if !p.Nearest {
		poolWays := float64(in.Machine.WaysPerBank) - usedBytes/wayStripeBytes(in)
		if poolWays < 1 {
			poolWays = 1
		}
		placeSharedBatchPool(in, pl, batch, poolWays)
		return pl
	}
	// D-NUCA mode: the batch pool is whatever capacity the latency-critical
	// packing left, spread proportionally to each bank's free space — so
	// batch stays out of (full) latency-critical banks, which is what makes
	// the Fig. 12 blue line stable.
	remaining := 0.0
	for _, b := range balance {
		remaining += b
	}
	if remaining <= 0 {
		panic("core: fixed allocation left no space for batch")
	}
	split := sharedPoolSplit(in, batch, remaining)
	meanPoolWays := remaining / float64(in.Machine.Banks()) / in.Machine.WayBytes()
	for _, app := range batch {
		for b, free := range balance {
			pl.Add(app, topo.TileID(b), split[app]*free/remaining)
		}
		pl.SetUnpartitioned(app)
		pl.SetGroupWays(app, meanPoolWays)
		if in.Prov.Enabled() {
			in.Prov.Simple(obs.StageBatch, int(in.Apps[app].VM), int(app), false, split[app], split[app])
		}
	}
	return pl
}
