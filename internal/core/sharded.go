// alloc-guarded: hierarchical placement shares the epoch loop's zero-alloc
// discipline — every per-placement temporary lives in a pooled scratch, and
// new heap allocation sites here are caught by cmd/allocvet and
// TestAllocGuardSharded.

package core

import (
	"fmt"
	"sync"

	"jumanji/internal/lookahead"
	"jumanji/internal/mrc"
	"jumanji/internal/obs"
	"jumanji/internal/topo"
)

// ShardedPlacer scales a flat D-NUCA placer to datacenter-size meshes by
// placing hierarchically, the way real datacenters place resources across
// locality domains. The mesh is partitioned into contiguous rectangular
// regions (topo.Partition, memoized per topology); each epoch:
//
//  1. VMs are assigned to regions using region-aggregate information only:
//     every VM's whole-machine bank entitlement is estimated with the same
//     bank-granular lookahead the flat placer uses (combined batch hulls +
//     latency-critical reservations), then VMs are handed to their nearest
//     region, neediest first, preferring regions with enough free banks;
//  2. the Inner placer runs *within* each region independently on a
//     region-local sub-input (cores remapped to the region's own mesh), and
//     the per-region placements are merged back in deterministic region
//     order.
//
// The flat algorithms are superlinear in banks×apps, so sharding turns one
// O((R·b)^k) placement into R placements of O(b^k): near-linear in regions.
//
// With a single region the pipeline reduces to the identity mapping — the
// sub-input equals the input — so the result is bitwise-identical to running
// Inner flat (pinned by TestShardedSingleRegionBitwiseIdentical).
type ShardedPlacer struct {
	// Inner is the flat placer run inside each region; nil means
	// JumanjiPlacer{}.
	Inner Placer
	// RegionW, RegionH bound each region's dimensions; non-positive values
	// default to DefaultRegionDim. Values larger than the mesh clamp to it
	// (one region = flat placement).
	RegionW, RegionH int
}

// DefaultRegionDim is the default region edge. 4×4 regions hold a handful of
// VMs each — enough for the within-region capacity trade-offs to matter —
// while keeping the flat placer's superlinear per-region cost small: on a
// 16×16 mesh the default is ~8× faster than flat placement (the ISSUE 8
// acceptance bar is ≥5×, gated by cmd/benchdiff).
const DefaultRegionDim = 4

func (p ShardedPlacer) inner() Placer {
	if p.Inner != nil {
		return p.Inner
	}
	return JumanjiPlacer{}
}

func (p ShardedPlacer) regionDims() (int, int) {
	w, h := p.RegionW, p.RegionH
	if w <= 0 {
		w = DefaultRegionDim
	}
	if h <= 0 {
		h = DefaultRegionDim
	}
	return w, h
}

// Name implements Placer. Sharding is an implementation strategy, not a
// different management policy, so the design keeps the inner placer's name.
func (p ShardedPlacer) Name() string { return p.inner().Name() }

// PlaceInto implements Placer.
func (p ShardedPlacer) PlaceInto(in *Input, pl *Placement) *Placement {
	mustValidate(in)
	s := getShardScratch()
	defer putShardScratch(s)

	s.vms = in.AppendVMs(s.vms[:0])
	if len(s.vms) > in.Machine.Banks() {
		// Oversubscription folds VMs into time-shared groups — a global
		// decision that does not decompose by region. Delegate to the flat
		// placer (which either handles or rejects it).
		return p.inner().PlaceInto(in, pl)
	}

	rw, rh := p.regionDims()
	regs := topo.Partition(in.Machine.Mesh, rw, rh)
	assignVMsToRegions(in, regs, s)

	pl.Reset(in.Machine)
	rs := getRegionScratch()
	for r := topo.RegionID(0); int(r) < regs.NumRegions(); r++ {
		if s.regVMs[r] == 0 {
			continue
		}
		buildRegionInput(in, regs, r, s, rs)
		attachRegionProv(in, regs, r, rs)
		p.inner().PlaceInto(&rs.in, rs.pl)
		adoptRegionProv(in, rs)
		mergeRegion(pl, regs, r, rs)
	}
	putRegionScratch(rs)
	return pl
}

// shardScratch pools the temporaries of the VM→region assignment stage.
type shardScratch struct {
	arena  mrc.Arena
	vms    []VMID
	lat    []AppID
	batch  []AppID
	curves []mrc.Curve
	reqs   []lookahead.Request
	sizes  []float64
	latOf  []float64       // per VM index: reserved latency-critical bytes
	need   []int           // per VM index: whole-bank entitlement
	region []topo.RegionID // per VM index: assigned region
	order  []int32         // VM indices, neediest first

	regVMs  []int // per region: VMs assigned
	regFree []int // per region: banks not yet spoken for
}

var shardScratchPool = sync.Pool{New: func() any { return &shardScratch{} }}

func getShardScratch() *shardScratch {
	s := shardScratchPool.Get().(*shardScratch)
	s.arena.Reset()
	return s
}

func putShardScratch(s *shardScratch) { shardScratchPool.Put(s) }

// regionScratch pools one region's sub-input and placement. The sub-input's
// Apps/LatSizes and the Placement are reused across borrows, so steady-state
// sharded placement allocates nothing per region.
type regionScratch struct {
	in  Input
	ids []AppID // local app -> global app
	pl  *Placement
}

var regionScratchPool = sync.Pool{New: func() any {
	return &regionScratch{
		pl: &Placement{}, // alloc: ok (pool warmup)
	}
}}

func getRegionScratch() *regionScratch {
	rs := regionScratchPool.Get().(*regionScratch)
	if rs.in.LatSizes == nil {
		rs.in.LatSizes = map[AppID]float64{} // alloc: ok (pool warmup)
	}
	return rs
}

func putRegionScratch(rs *regionScratch) { regionScratchPool.Put(rs) }

// assignVMsToRegions fills s.region: the region each VM's applications will
// be placed in. Entitlements come from the same whole-machine bank-granular
// lookahead the flat placer's assignBanks step uses, so a VM's region budget
// reflects its miss-curve utility, not just its app count; assignment is
// neediest-VM-first to its nearest region with room.
func assignVMsToRegions(in *Input, regs *topo.Regions, s *shardScratch) {
	m := in.Machine
	vms := s.vms
	wayBytes := m.WayBytes()

	// Whole-machine bank entitlement per VM (cf. JumanjiPlacer.assignBanks,
	// with the controllers' target sizes standing in for placed reservations).
	s.latOf = s.latOf[:0]
	s.reqs = s.reqs[:0]
	latTotal, minTotal := 0.0, 0.0
	for _, vm := range vms {
		s.lat, s.batch = in.AppendAppsOf(s.lat[:0], s.batch[:0], vm)
		lat := 0.0
		for _, app := range s.lat {
			sz := in.LatSizes[app]
			if sz < wayBytes {
				sz = wayBytes
			}
			lat += sz
		}
		s.latOf = append(s.latOf, lat)
		latTotal += lat
		// The entitlement request steps in whole banks, so bank-granular
		// samples of each miss-rate curve carry all the information this
		// stage can use — downsampling turns the assignment stage from
		// O(apps × ways) into O(apps × banks) curve work, which is what keeps
		// stage 1 cheap at 100s of banks.
		curve := flatCurve(in, &s.arena)
		if len(s.batch) > 0 {
			nb := m.Banks() + 1
			curves := s.curves[:0]
			for _, app := range s.batch {
				spec := in.Apps[app]
				d := s.arena.Curve(m.BankBytes, nb)
				for k := range d.M {
					d.M[k] = spec.MissRatio.Eval(float64(k)*m.BankBytes) * spec.AccessRate
				}
				curves = append(curves, d)
			}
			s.curves = curves
			curve = s.arena.ConvexHull(s.arena.Combine(curves...))
		}
		r := lookahead.BankGranularRequest(curve, 1, lat, m.BankBytes)
		if len(s.batch) > 0 && r.Min < wayBytes*float64(len(s.batch)) {
			r.Min += m.BankBytes
		}
		s.reqs = append(s.reqs, r)
		minTotal += r.Min
	}
	batchBalance := m.TotalBytes() - latTotal
	if batchBalance < minTotal {
		// Pathologically oversized latency-critical targets: entitlements
		// degrade to app-count shares (the inner placer's shrink retry will
		// resolve capacity within each region).
		if in.Prov.Enabled() {
			in.Prov.Valve(obs.ValveRegionDegrade, -1, 0, batchBalance/minTotal, "")
		}
		batchBalance = minTotal
	}
	s.sizes = lookahead.AllocateInto(s.sizes[:0], batchBalance, s.reqs)

	s.need = s.need[:0]
	for i := range vms {
		banks := int((s.latOf[i]+s.sizes[i])/m.BankBytes + 0.5)
		if banks < 1 {
			banks = 1
		}
		s.need = append(s.need, banks)
	}

	// Neediest first; the stable insertion sort keeps ties in ascending VM
	// order, so the permutation — hence the assignment — is deterministic.
	order := s.order[:0]
	for i := range vms {
		order = append(order, int32(i))
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && s.need[order[j]] > s.need[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	s.order = order

	n := regs.NumRegions()
	s.regVMs = s.regVMs[:0]
	s.regFree = s.regFree[:0]
	for r := 0; r < n; r++ {
		s.regVMs = append(s.regVMs, 0)
		s.regFree = append(s.regFree, regs.Banks(topo.RegionID(r)))
	}
	if cap(s.region) < len(vms) {
		s.region = make([]topo.RegionID, len(vms)) // alloc: ok (growth path)
	}
	s.region = s.region[:len(vms)]

	for _, vi := range order {
		vm := vms[vi]
		need := s.need[vi]
		// First choice: nearest region with enough free banks. Fallback: the
		// count-feasible region with the most free banks (every VM needs at
		// least one bank of its own, so regVMs < Banks must hold — and by
		// pigeonhole over len(vms) <= total banks, some region qualifies).
		best, bestDist := topo.RegionID(-1), 0
		fall, fallFree, fallDist := topo.RegionID(-1), 0, 0
		for r := topo.RegionID(0); int(r) < n; r++ {
			if s.regVMs[r] >= regs.Banks(r) {
				continue
			}
			d := vmRegionDistance(in, regs, r, vm)
			if s.regFree[r] >= need {
				if best < 0 || d < bestDist {
					best, bestDist = r, d
				}
			}
			if fall < 0 || s.regFree[r] > fallFree || (s.regFree[r] == fallFree && d < fallDist) {
				fall, fallFree, fallDist = r, s.regFree[r], d
			}
		}
		fellBack := best < 0
		if best < 0 {
			best = fall
		}
		if best < 0 {
			panic(fmt.Sprintf("core: no region can host VM %d (%d VMs, %d banks)", vm, len(vms), m.Banks()))
		}
		if in.Prov.Enabled() {
			if fellBack {
				in.Prov.Valve(obs.ValveRegionFallback, int(vm), 0, 0, "no nearby region had enough free banks")
			}
			recordRegionChoice(in, regs, vm, need, best, s.regVMs, s.regFree)
		}
		s.region[vi] = best
		s.regVMs[best]++
		s.regFree[best] -= need
	}
}

// vmRegionDistance is the total hop distance from vm's cores to region r —
// the locality objective VM assignment minimizes. Integer accumulation in
// app order, so it is exactly deterministic.
func vmRegionDistance(in *Input, regs *topo.Regions, r topo.RegionID, vm VMID) int {
	d := 0
	for _, a := range in.Apps {
		if a.VM == vm {
			d += regs.Distance(r, a.Core)
		}
	}
	return d
}

// vmIndexOf finds vm in the ascending vms slice by binary search.
func vmIndexOf(vms []VMID, vm VMID) int {
	lo, hi := 0, len(vms)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if vms[mid] < vm {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// buildRegionInput assembles region r's sub-input into rs: the apps of r's
// VMs in global order, cores translated to the region's own mesh (cores
// outside the region map to the region's hop-nearest tile, preserving the
// direction locality pulls from). With a single region the translation is the
// identity, so the sub-input equals the input field for field.
func buildRegionInput(in *Input, regs *topo.Regions, r topo.RegionID, s *shardScratch, rs *regionScratch) {
	rs.in.Prov = nil // pooled; attachRegionProv sets a fresh sub-recorder when enabled
	rs.in.Machine = Machine{Mesh: regs.Mesh(r), BankBytes: in.Machine.BankBytes, WaysPerBank: in.Machine.WaysPerBank}
	rs.in.Apps = rs.in.Apps[:0]
	rs.ids = rs.ids[:0]
	clear(rs.in.LatSizes)
	for i := range in.Apps {
		spec := in.Apps[i]
		if s.region[vmIndexOf(s.vms, spec.VM)] != r {
			continue
		}
		if regs.RegionOf(spec.Core) == r {
			spec.Core = regs.Local(spec.Core)
		} else {
			spec.Core = regs.Nearest(r, spec.Core)
		}
		// Truncate the miss curve to the region's capacity (shared backing,
		// no copy): the inner placer never allocates an app more than the
		// region holds, and its curve transforms are linear in points —
		// whole-machine-resolution curves are what makes flat placement
		// superlinear in banks. With one region this is the identity.
		if n := int(rs.in.Machine.TotalBytes()/spec.MissRatio.Unit) + 1; n < len(spec.MissRatio.M) {
			spec.MissRatio = mrc.Curve{Unit: spec.MissRatio.Unit, M: spec.MissRatio.M[:n]}
		}
		local := AppID(len(rs.in.Apps))
		if sz, ok := in.LatSizes[AppID(i)]; ok {
			rs.in.LatSizes[local] = sz
		}
		rs.in.Apps = append(rs.in.Apps, spec)
		rs.ids = append(rs.ids, AppID(i))
	}
}

// mergeRegion folds region r's placement into the global one. Each global
// cell receives exactly one Add of the region's accumulated value (local
// apps ascending, local banks ascending), so merged cells are bitwise equal
// to the region placer's output.
func mergeRegion(pl *Placement, regs *topo.Regions, r topo.RegionID, rs *regionScratch) {
	for li, gid := range rs.ids {
		local := AppID(li)
		for lb, v := range rs.pl.AllocRow(local) {
			if v > 0 {
				pl.Add(gid, regs.Global(r, topo.TileID(lb)), v)
			}
		}
		if rs.pl.Unpartitioned(local) {
			pl.SetUnpartitioned(gid)
		}
		if rs.pl.Overlay(local) {
			pl.SetOverlay(gid)
		}
		if w := rs.pl.GroupWays(local); w > 0 {
			pl.SetGroupWays(gid, w)
		}
		if ts := rs.pl.TimeShared(local); ts > 0 {
			pl.SetTimeShared(gid, ts)
		}
	}
}
