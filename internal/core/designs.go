package core

import (
	"fmt"

	"jumanji/internal/lookahead"
	"jumanji/internal/obs"
)

// StaticPlacer is the naïve baseline all results are normalized to
// (Sec. VII): each latency-critical application is allocated four ways of
// the LLC via way-partitioning, and all batch applications share the
// remaining ways unpartitioned. S-NUCA: everything striped over all banks.
type StaticPlacer struct{}

// staticLatCritWays is Static's fixed per-LC-app way allocation.
const staticLatCritWays = 4

// Name implements Placer.
func (StaticPlacer) Name() string { return "Static" }

// PlaceInto implements Placer.
func (StaticPlacer) PlaceInto(in *Input, pl *Placement) *Placement {
	mustValidate(in)
	const ways = staticLatCritWays
	pl.Reset(in.Machine)
	lat := in.LatCritApps()
	// Fleet-scale fallback: with enough latency-critical apps (datacenter
	// meshes host dozens) the fixed per-app ways exceed the associativity, so
	// split the ways left after the batch pool's one-way reserve equally
	// instead. The exact historical behaviour is kept whenever the fixed
	// allocation fits.
	waysPerApp := float64(ways)
	if avail := float64(in.Machine.WaysPerBank - 1); waysPerApp*float64(len(lat)) > avail {
		if avail <= 0 {
			panic(fmt.Sprintf("core: Static design has no ways left for batch (%d LC apps × %d ways)", len(lat), ways))
		}
		waysPerApp = avail / float64(len(lat))
		if in.Prov.Enabled() {
			in.Prov.Valve(obs.ValveStaticWayRescale, -1, 0, waysPerApp/float64(ways), "")
		}
	}
	usedWays := 0.0
	for _, app := range lat {
		bytes := waysPerApp * in.Machine.WayBytes() * float64(in.Machine.Banks())
		stripe(in, pl, app, bytes)
		usedWays += waysPerApp
	}
	poolWays := float64(in.Machine.WaysPerBank) - usedWays
	placeSharedBatchPool(in, pl, in.BatchApps(), poolWays)
	return pl
}

// AdaptivePlacer is the Adaptive design (Sec. III): S-NUCA with the
// latency-critical allocations tuned by feedback control (Input.LatSizes)
// and batch data left unpartitioned to preserve associativity.
type AdaptivePlacer struct{}

// Name implements Placer.
func (AdaptivePlacer) Name() string { return "Adaptive" }

// PlaceInto implements Placer.
func (AdaptivePlacer) PlaceInto(in *Input, pl *Placement) *Placement {
	mustValidate(in)
	pl.Reset(in.Machine)
	poolWays := placeAdaptiveLatCrit(in, pl)
	placeSharedBatchPool(in, pl, in.BatchApps(), poolWays)
	return pl
}

// VMPartPlacer is the VM-Part design (Sec. III): Adaptive plus per-VM
// partitioning of batch data within every bank, defending conflict attacks
// across VMs at the cost of associativity.
type VMPartPlacer struct{}

// Name implements Placer.
func (VMPartPlacer) Name() string { return "VM-Part" }

// PlaceInto implements Placer.
func (VMPartPlacer) PlaceInto(in *Input, pl *Placement) *Placement {
	mustValidate(in)
	pl.Reset(in.Machine)
	poolWays := placeAdaptiveLatCrit(in, pl)

	// Divide the batch ways among VMs by lookahead over each VM's combined
	// batch miss curve; quantum is one way across all banks. Scratch reuse
	// keeps the per-epoch cost flat: app lists and the combined curves come
	// from a pooled placeScratch (the curves from its arena).
	s := getPlaceScratch(in.Machine)
	defer putPlaceScratch(s)
	s.vms = in.AppendVMs(s.vms[:0])
	reqs := s.reqs[:0]
	var vmsWithBatch []VMID
	for _, vm := range s.vms {
		s.lat, s.batch = in.AppendAppsOf(s.lat[:0], s.batch[:0], vm)
		if len(s.batch) == 0 {
			continue
		}
		vmsWithBatch = append(vmsWithBatch, vm)
		reqs = append(reqs, lookahead.Request{
			Curve: combinedBatchCurveArena(s, in, s.batch),
			Min:   wayStripeBytes(in), // every VM keeps at least one way
			Step:  wayStripeBytes(in),
		})
	}
	s.reqs = reqs
	poolBytes := poolWays * wayStripeBytes(in)
	// Fleet-scale fallback: with more batch VMs than spare ways (datacenter
	// meshes) the one-way-per-VM minimum is infeasible; scale the quantum
	// down so every VM still gets an equal guaranteed sliver. The historical
	// whole-way behaviour is untouched whenever it was feasible.
	if minTotal := wayStripeBytes(in) * float64(len(reqs)); minTotal > poolBytes {
		scale := poolBytes / minTotal
		for i := range reqs {
			reqs[i].Min *= scale
			reqs[i].Step *= scale
		}
		if in.Prov.Enabled() {
			in.Prov.Valve(obs.ValveVMQuantumRescale, -1, 0, scale, "")
		}
	}
	s.sizes = lookahead.AllocateInto(s.sizes[:0], poolBytes, reqs)
	if in.Prov.Enabled() {
		for i, vm := range vmsWithBatch {
			in.Prov.Decision(obs.StageVMWays, int(vm), -1, false, s.sizes[i])
			in.Prov.Score(obs.StageVMWays, int(vm), -1, reqs[i].Curve.Eval(s.sizes[i]))
		}
	}
	for i, vm := range vmsWithBatch {
		s.lat, s.batch = in.AppendAppsOf(s.lat[:0], s.batch[:0], vm)
		vmWaysPerBank := s.sizes[i] / wayStripeBytes(in)
		split := sharedPoolSplit(in, s.batch, s.sizes[i])
		for _, app := range s.batch {
			stripe(in, pl, app, split[app])
			pl.SetUnpartitioned(app)
			pl.SetGroupWays(app, vmWaysPerBank)
		}
	}
	return pl
}

// placeAdaptiveLatCrit stripes each latency-critical app's feedback-set
// allocation across all banks and returns the ways per bank left for batch.
// If the controllers collectively ask for more than the LLC can give while
// keeping one way per bank for batch, all latency-critical allocations are
// scaled down proportionally.
func placeAdaptiveLatCrit(in *Input, pl *Placement) float64 {
	lat := in.LatCritApps()
	sizes := make([]float64, len(lat))
	total := 0.0
	for i, app := range lat {
		sizes[i] = in.LatSizes[app]
		if min := wayStripeBytes(in); sizes[i] < min {
			sizes[i] = min
		}
		total += sizes[i]
	}
	if budget := in.Machine.TotalBytes() - wayStripeBytes(in); total > budget {
		scale := budget / total
		for i := range sizes {
			sizes[i] *= scale
		}
		if in.Prov.Enabled() {
			in.Prov.Valve(obs.ValveAdaptiveScaleDown, -1, 0, scale, "")
		}
		total = budget
	}
	for i, app := range lat {
		stripe(in, pl, app, sizes[i])
	}
	poolWays := float64(in.Machine.WaysPerBank) - total/wayStripeBytes(in)
	if poolWays < 1 {
		poolWays = 1
	}
	return poolWays
}

// placeSharedBatchPool splits poolWays (per bank) of unpartitioned capacity
// among the batch apps by the natural-sharing model and stripes them.
func placeSharedBatchPool(in *Input, pl *Placement, batch []AppID, poolWays float64) {
	poolBytes := poolWays * wayStripeBytes(in)
	split := sharedPoolSplit(in, batch, poolBytes)
	for _, app := range batch {
		stripe(in, pl, app, split[app])
		pl.SetUnpartitioned(app)
		pl.SetGroupWays(app, poolWays)
	}
}

// wayStripeBytes is the bytes of one way striped across every bank — the
// allocation quantum of S-NUCA way-partitioning (Intel CAT).
func wayStripeBytes(in *Input) float64 {
	return in.Machine.WayBytes() * float64(in.Machine.Banks())
}

func mustValidate(in *Input) {
	if err := in.Validate(); err != nil {
		panic(err)
	}
}
