// alloc-guarded: placeScratch carries every per-placement temporary the epoch
// loop's placers need; new per-call heap allocation sites here are caught by
// cmd/allocvet and the TestAllocGuard* suite.

package core

import (
	"sync"

	"jumanji/internal/lookahead"
	"jumanji/internal/mrc"
)

// placeScratch pools the temporaries of one placement computation: bank
// balances and ownerships, per-VM app lists, lookahead requests and results,
// and an mrc.Arena backing every curve built during the call. Placers with
// value receivers cannot carry state across epochs, so PlaceInto bodies
// borrow a placeScratch from placeScratchPool instead; every buffer reaches
// its high-water mark during the first placement and is reused afterwards
// (the property TestAllocGuardPlacement pins).
//
// All slice fields follow the Append protocol (resliced to [:0] at each use
// site); the maps are retained and cleared. The arena is Reset once per
// borrow, so arena-backed curves never outlive the placement that made them.
type placeScratch struct {
	arena   mrc.Arena
	balance []float64
	claims  []VMID // per-bank latency-critical owner, -1 = unclaimed
	owner   []VMID // per-bank VM owner, -1 = free
	allowed []bool // per-bank membership mask for greedyFill
	vms     []VMID
	lat     []AppID // AppendAppsOf scratch
	batch   []AppID
	latApps []AppID // AppendLatCritApps scratch
	reqs    []lookahead.Request
	sizes   []float64
	order   []int32 // appendByDescendingRate scratch
	curves  []mrc.Curve
	latOf   map[VMID]float64
	needed  map[VMID]int
}

var placeScratchPool = sync.Pool{New: func() any {
	return &placeScratch{
		latOf:  map[VMID]float64{}, // alloc: ok (pool warmup)
		needed: map[VMID]int{},     // alloc: ok (pool warmup)
	}
}}

// getPlaceScratch borrows a scratch sized for m's bank count, with the
// per-bank slices reset (balance full, claims/owner -1, allowed false) and
// the arena empty.
func getPlaceScratch(m Machine) *placeScratch {
	s := placeScratchPool.Get().(*placeScratch)
	s.arena.Reset()
	banks := m.Banks()
	if cap(s.balance) < banks {
		s.balance = make([]float64, banks) // alloc: ok (pool warmup)
		s.claims = make([]VMID, banks)     // alloc: ok (pool warmup)
		s.owner = make([]VMID, banks)      // alloc: ok (pool warmup)
		s.allowed = make([]bool, banks)    // alloc: ok (pool warmup)
	}
	s.balance = fillBalance(s.balance[:banks], m)
	s.claims = s.claims[:banks]
	s.owner = s.owner[:banks]
	s.allowed = s.allowed[:banks]
	for i := 0; i < banks; i++ {
		s.claims[i] = -1
		s.owner[i] = -1
		s.allowed[i] = false
	}
	return s
}

func putPlaceScratch(s *placeScratch) {
	placeScratchPool.Put(s)
}

// combinedBatchCurveArena builds the VM-combined absolute miss-rate curve of
// batch using the Whirlpool model (Sec. VI-D), on the way-stripe grid, with
// every intermediate and the result backed by s.arena (valid until the
// scratch is returned).
func combinedBatchCurveArena(s *placeScratch, in *Input, batch []AppID) mrc.Curve {
	curves := s.curves[:0]
	for _, app := range batch {
		spec := in.Apps[app]
		curves = append(curves, spec.MissRatio.ScaleInto(s.arena.Alloc(len(spec.MissRatio.M)), spec.AccessRate))
	}
	s.curves = curves
	return s.arena.Combine(curves...)
}

// missRateArena builds app's absolute miss-rate curve (miss ratio × access
// rate, the quantity lookahead trades off across applications) in s.arena.
// The input curve is a convex hull, so the scaled curve is one too.
func missRateArena(s *placeScratch, in *Input, app AppID) mrc.Curve {
	spec := in.Apps[app]
	return spec.MissRatio.ScaleInto(s.arena.Alloc(len(spec.MissRatio.M)), spec.AccessRate)
}
