package core

import (
	"fmt"
	"math"

	"jumanji/internal/lookahead"
	"jumanji/internal/mrc"
	"jumanji/internal/obs"
	"jumanji/internal/topo"
)

// JumanjiPlacer implements JumanjiPlacer from Listing 3 — the paper's
// primary contribution. Each epoch it:
//
//  1. reserves space for latency-critical applications in their nearest
//     banks via LatCritPlacer (Listing 2), sized by feedback control, so
//     tail-latency deadlines are met;
//  2. divides the remaining capacity among VMs with JumanjiLookahead, which
//     forces every VM's total allocation onto whole-bank boundaries, then
//     assigns banks to VMs round-robin nearest-first — so no two VMs ever
//     share a bank, defending conflict attacks, port attacks and
//     performance leakage (Sec. VI);
//  3. optimizes batch data placement within each VM's banks with Jigsaw's
//     algorithm, minimizing on-chip data movement.
type JumanjiPlacer struct {
	// Insecure disables step 2's bank isolation ("Jumanji: Insecure" in
	// Fig. 16): batch data is placed for pure locality after the
	// latency-critical reservations.
	Insecure bool
	// AllowOversubscription enables the Sec. IV-B fallback when VMs
	// outnumber LLC banks: VMs are grouped onto bank sets and
	// time-multiplexed, with the shared banks flushed on every context
	// switch. Security still holds (flushing removes all shared state) but
	// time-shared applications run cold after each switch; the resulting
	// placement marks them in Placement.TimeShared. Without this flag the
	// placer rejects such workloads outright.
	AllowOversubscription bool
}

// Name implements Placer.
func (p JumanjiPlacer) Name() string {
	if p.Insecure {
		return "Jumanji: Insecure"
	}
	return "Jumanji"
}

// PlaceInto implements Placer.
func (p JumanjiPlacer) PlaceInto(in *Input, pl *Placement) *Placement {
	mustValidate(in)
	// Safety valve: if the controllers' demands make bank-granular VM
	// isolation infeasible (more reserved banks than exist), scale the
	// latency-critical sizes down and retry. This cannot occur with the
	// controllers' default bounds; it guards pathological inputs.
	scaled := *in
	for attempt := 0; attempt < 16; attempt++ {
		in.Prov.Attempt()
		err := p.place(&scaled, pl)
		if err == nil {
			return pl
		}
		if in.Prov.Enabled() {
			in.Prov.Valve(obs.ValveShrinkLatSizes, -1, attempt, 0.9, err.Error())
		}
		scaled = shrinkLatSizes(scaled, 0.9)
	}
	panic(fmt.Sprintf("core: %s could not find a feasible placement", p.Name()))
}

func shrinkLatSizes(in Input, factor float64) Input {
	smaller := make(map[AppID]float64, len(in.LatSizes))
	for id, s := range in.LatSizes {
		smaller[id] = s * factor
	}
	in.LatSizes = smaller
	return in
}

func (p JumanjiPlacer) place(in *Input, pl *Placement) error {
	s := getPlaceScratch(in.Machine)
	defer putPlaceScratch(s)
	s.vms = in.AppendVMs(s.vms[:0])
	vms := s.vms
	if !p.Insecure && p.AllowOversubscription && len(vms) > in.Machine.Banks() {
		return p.placeOversubscribed(in, vms, pl)
	}
	pl.Reset(in.Machine)
	balance := s.balance

	// ① Reserve latency-critical allocations nearest-first.
	latRes := latCritPlace(in, pl, balance, !p.Insecure, s)
	if latRes.unplaced > 0 {
		return fmt.Errorf("core: %g bytes of latency-critical data did not fit", latRes.unplaced)
	}

	if p.Insecure {
		p.placeBatchInsecure(in, pl, s, balance)
		return nil
	}

	// ② Bank-granular VM allocation (JumanjiLookahead) + bank assignment.
	owner, err := p.assignBanks(in, pl, latRes, s)
	if err != nil {
		return err
	}

	// ③ Jigsaw placement within each VM's banks.
	for _, vm := range vms {
		allowed := s.allowed
		vmCapacity := 0.0
		// Scan banks in order: the capacity sum must accumulate
		// deterministically (float addition is order-sensitive).
		for b := 0; b < in.Machine.Banks(); b++ {
			allowed[b] = owner[b] == vm
			if allowed[b] {
				vmCapacity += balance[b]
			}
		}
		s.lat, s.batch = in.AppendAppsOf(s.lat[:0], s.batch[:0], vm)
		if len(s.batch) == 0 || vmCapacity <= 0 {
			continue
		}
		p.placeBatchWithin(in, pl, s, balance, s.batch, vmCapacity, allowed)
	}
	return nil
}

// placeOversubscribed handles more VMs than banks (Sec. IV-B): VMs are
// folded into at most Banks() scheduling groups; the normal bank-isolated
// placement runs on the groups; and every application in a group holding
// more than one VM is marked time-shared (its banks are flushed on each
// context switch, so it is warm only its share of the time). Isolation
// between concurrently-resident VMs is preserved by construction, and
// isolation across time by the flush.
func (p JumanjiPlacer) placeOversubscribed(in *Input, vms []VMID, pl *Placement) error {
	banks := in.Machine.Banks()
	group := make(map[VMID]VMID, len(vms))
	groupSize := make(map[VMID]int)
	for i, vm := range vms {
		g := VMID(i % banks)
		group[vm] = g
		groupSize[g]++
	}
	if in.Prov.Enabled() {
		in.Prov.Valve(obs.ValveOversubscriptionFold, -1, 0,
			float64(banks)/float64(len(vms)),
			fmt.Sprintf("%d VMs folded into %d time-shared groups", len(vms), banks))
	}
	folded := *in
	folded.Apps = make([]AppSpec, len(in.Apps))
	copy(folded.Apps, in.Apps)
	for i := range folded.Apps {
		folded.Apps[i].VM = group[in.Apps[i].VM]
	}
	if err := p.place(&folded, pl); err != nil {
		return err
	}
	for i, a := range in.Apps {
		if k := groupSize[group[a.VM]]; k > 1 {
			pl.SetTimeShared(AppID(i), 1/float64(k))
		}
	}
	return nil
}

// assignBanks computes each VM's whole-bank entitlement and hands out banks
// round-robin, each VM taking its closest remaining bank. Banks already
// holding a VM's latency-critical data belong to that VM from the start.
// The returned per-bank owner slice (-1 = free) is s.owner.
func (p JumanjiPlacer) assignBanks(in *Input, pl *Placement, latRes latCritResult, s *placeScratch) ([]VMID, error) {
	m := in.Machine
	vms := s.vms
	if len(vms) > m.Banks() {
		return nil, fmt.Errorf("core: %d VMs exceed %d banks; bank isolation impossible", len(vms), m.Banks())
	}

	// Feedback-reserved bytes per VM.
	latOf := s.latOf
	clear(latOf)
	s.latApps = in.AppendLatCritApps(s.latApps[:0])
	for _, app := range s.latApps {
		latOf[in.Apps[app].VM] += pl.TotalOf(app)
	}

	// JumanjiLookahead: batch capacity divided among VMs so that
	// lat + batch is a whole number of banks per VM.
	reqs := s.reqs[:0]
	minTotal := 0.0
	for _, vm := range vms {
		s.lat, s.batch = in.AppendAppsOf(s.lat[:0], s.batch[:0], vm)
		batch := s.batch
		curve := flatCurve(in, &s.arena)
		if len(batch) > 0 {
			curve = s.arena.ConvexHull(combinedBatchCurveArena(s, in, batch))
		}
		r := lookahead.BankGranularRequest(curve, 1, latOf[vm], m.BankBytes)
		// A VM whose latency-critical data lands exactly on a bank boundary
		// would start with zero batch space; its batch applications still
		// need a way each, so step the minimum to the next feasible point.
		if len(batch) > 0 && r.Min < in.Machine.WayBytes()*float64(len(batch)) {
			r.Min += m.BankBytes
			if in.Prov.Enabled() {
				in.Prov.Valve(obs.ValveBankMinStepUp, int(vm), 0, 0, "")
			}
		}
		reqs = append(reqs, r)
		minTotal += r.Min
	}
	s.reqs = reqs
	// vms is ascending, so the reserved-bytes sum is deterministic without
	// the sorted-map-keys workaround the map layout needed; VMs with no
	// latency-critical data contribute an exact +0.
	latTotal := 0.0
	for _, vm := range vms {
		latTotal += latOf[vm]
	}
	batchBalance := m.TotalBytes() - latTotal
	if minTotal > batchBalance+1e-6 {
		return nil, fmt.Errorf("core: bank-granular minima (%g) exceed batch capacity (%g)", minTotal, batchBalance)
	}
	s.sizes = lookahead.AllocateInto(s.sizes[:0], batchBalance, reqs)
	sizes := s.sizes
	if in.Prov.Enabled() {
		for i, vm := range vms {
			in.Prov.Decision(obs.StageVMBanks, int(vm), -1, false, latOf[vm]+sizes[i])
			in.Prov.Score(obs.StageVMBanks, int(vm), -1, reqs[i].Curve.Eval(sizes[i]))
		}
	}

	// Whole-bank entitlement per VM.
	needed := s.needed
	clear(needed)
	totalBanks := 0
	for i, vm := range vms {
		banks := int(math.Round((latOf[vm] + sizes[i]) / m.BankBytes))
		needed[vm] = banks
		totalBanks += banks
	}
	if totalBanks > m.Banks() {
		return nil, fmt.Errorf("core: VM entitlements (%d banks) exceed %d banks", totalBanks, m.Banks())
	}

	// Start from the latency-critical claims.
	owner := s.owner
	for b, vm := range latRes.claims {
		if vm >= 0 {
			owner[b] = vm
			needed[vm]--
		}
	}

	// Every VM with applications must own at least one bank, even if its
	// capacity share rounded to zero.
	for _, vm := range vms {
		owned := 0
		for _, o := range owner {
			if o == vm {
				owned++
			}
		}
		if owned+needed[vm] <= 0 {
			needed[vm] = 1 - owned
		}
	}

	// Round-robin: each VM takes its closest unowned bank. Leftover banks
	// (utility-flat tails) are also distributed so all capacity is owned.
	for {
		progressed := false
		for _, vm := range vms {
			if needed[vm] <= 0 {
				continue
			}
			b, ok := nearestFreeBank(in, vm, owner)
			if !ok {
				return nil, fmt.Errorf("core: ran out of banks assigning VM %d", vm)
			}
			owner[b] = vm
			needed[vm]--
			progressed = true
			if in.Prov.Enabled() {
				recordBankPick(in, obs.StageVMBanks, vm, b, owner)
			}
		}
		if !progressed {
			break
		}
	}
	for {
		b, vm, ok := nextLeftover(in, vms, owner)
		if !ok {
			break
		}
		owner[b] = vm
		if in.Prov.Enabled() {
			in.Prov.Placed(obs.StageVMBanks, int(vm), -1, int(b), vmDistance(in, vm, b), m.BankBytes)
		}
	}
	return owner, nil
}

// placeBatchWithin runs Jigsaw's algorithm inside one VM: per-app Lookahead
// over the VM's capacity, then nearest-first packing restricted to the VM's
// banks (allowed, indexed by bank; nil = all).
func (p JumanjiPlacer) placeBatchWithin(in *Input, pl *Placement, s *placeScratch, balance []float64, batch []AppID, capacity float64, allowed []bool) {
	wayBytes := in.Machine.WayBytes()
	reqs := s.reqs[:0]
	for _, app := range batch {
		reqs = append(reqs, lookahead.Request{
			Curve: missRateHullArena(s, in, app),
			Min:   wayBytes,
			Step:  wayBytes,
			Max:   in.Machine.TotalBytes(),
		})
	}
	s.reqs = reqs
	// Fleet-scale fallback: a VM squeezed into a capacity sliver smaller
	// than one way per app (possible inside small ShardedPlacer regions)
	// scales the quantum down instead of tripping lookahead's minima check.
	// Infeasible minima previously panicked, so the historical allocation is
	// bitwise-unchanged whenever it existed.
	if minTotal := wayBytes * float64(len(batch)); minTotal > capacity {
		scale := capacity / minTotal
		for i := range reqs {
			reqs[i].Min *= scale
			reqs[i].Step *= scale
		}
		if in.Prov.Enabled() {
			vm := -1
			if len(batch) > 0 {
				vm = int(in.Apps[batch[0]].VM)
			}
			in.Prov.Valve(obs.ValveWayQuantumRescale, vm, 0, scale, "")
		}
	}
	s.sizes = lookahead.AllocateInto(s.sizes[:0], capacity, reqs)
	s.order = appendByDescendingRate(s.order[:0], in, batch)
	if in.Prov.Enabled() {
		// The lookahead score behind each app's granted size: projected
		// misses/cycle at the allocation, on the same hull lookahead walked.
		for i, app := range batch {
			in.Prov.Score(obs.StageBatch, int(in.Apps[app].VM), int(app), reqs[i].Curve.Eval(s.sizes[i]))
		}
	}
	for _, pos := range s.order {
		greedyFill(in, pl, batch[pos], s.sizes[pos], balance, allowed, obs.StageBatch, obs.ElimSecurityDomain)
	}
}

// placeBatchInsecure is the Fig. 16 variant: latency-critical reservations
// stand, but batch goes wherever locality is best, with no VM isolation.
func (p JumanjiPlacer) placeBatchInsecure(in *Input, pl *Placement, s *placeScratch, balance []float64) {
	s.batch = in.AppendBatchApps(s.batch[:0])
	if len(s.batch) == 0 {
		return
	}
	capacity := 0.0
	for _, b := range balance {
		capacity += b
	}
	if capacity <= 0 {
		return
	}
	p.placeBatchWithin(in, pl, s, balance, s.batch, capacity, nil)
}

// nearestFreeBank finds the closest unowned bank (owner[b] < 0) to any of
// vm's cores.
func nearestFreeBank(in *Input, vm VMID, owner []VMID) (topo.TileID, bool) {
	best, bestDist := topo.TileID(-1), -1
	for b := 0; b < in.Machine.Banks(); b++ {
		if owner[b] >= 0 {
			continue
		}
		bid := topo.TileID(b)
		d := vmDistance(in, vm, bid)
		if bestDist < 0 || d < bestDist {
			best, bestDist = bid, d
		}
	}
	return best, bestDist >= 0
}

// nextLeftover picks an unowned bank and the VM nearest to it.
func nextLeftover(in *Input, vms []VMID, owner []VMID) (topo.TileID, VMID, bool) {
	for b := 0; b < in.Machine.Banks(); b++ {
		if owner[b] >= 0 {
			continue
		}
		bid := topo.TileID(b)
		bestVM, bestDist := vms[0], -1
		for _, vm := range vms {
			d := vmDistance(in, vm, bid)
			if bestDist < 0 || d < bestDist {
				bestVM, bestDist = vm, d
			}
		}
		return bid, bestVM, true
	}
	return 0, 0, false
}

// flatCurve is a zero-utility curve for VMs with no batch applications,
// backed by the arena (nil falls back to the heap).
func flatCurve(in *Input, a *mrc.Arena) mrc.Curve {
	c := a.Curve(in.Machine.WayBytes(), 2)
	c.M[0], c.M[1] = 0, 0
	return c
}
