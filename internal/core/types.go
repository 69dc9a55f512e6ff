// Package core implements the paper's primary contribution: the data
// placement algorithms that manage a distributed LLC. It contains
// LatCritPlacer (Listing 2), JumanjiPlacer (Listing 3), a Jigsaw-style
// data-movement-minimizing placer, and the S-NUCA baselines the evaluation
// compares against (Static, Adaptive, VM-Part), plus the Jumanji variants
// used in the sensitivity studies (Insecure, Ideal Batch).
//
// Placers are pure software: they consume miss curves and produce a
// Placement (bytes per application per bank). Performance and security
// consequences of a Placement are evaluated by internal/system.
package core

import (
	"fmt"

	"jumanji/internal/mrc"
	"jumanji/internal/obs"
	"jumanji/internal/topo"
)

// AppID indexes an application in the workload (position in Input.Apps).
type AppID int

// VMID identifies a trust domain. Applications in the same VM trust each
// other; applications in different VMs are mutually untrusted (Sec. VI-A).
type VMID int

// AppSpec describes one application to the placement algorithms.
type AppSpec struct {
	Name string
	VM   VMID
	// Core is the tile the application's thread runs on.
	Core topo.TileID
	// LatencyCritical marks applications with tail-latency deadlines.
	LatencyCritical bool
	// MissRatio is the application's LLC miss-*ratio* curve (misses per
	// LLC access, 0..1, as profiled by UMONs).
	MissRatio mrc.Curve
	// AccessRate is the application's LLC access intensity (accesses per
	// kilo-instruction, or any consistent rate). Placers weight utility by
	// it, so curves of light and heavy applications compete fairly.
	AccessRate float64
}

// Machine describes the LLC the placers manage.
type Machine struct {
	Mesh        topo.Mesh
	BankBytes   float64 // capacity per bank
	WaysPerBank int
}

// DefaultMachine returns the Table II machine: 5×4 mesh, 1 MB 32-way banks.
func DefaultMachine() Machine {
	return Machine{Mesh: topo.NewMesh(5, 4), BankBytes: 1 << 20, WaysPerBank: 32}
}

// Banks returns the number of LLC banks.
func (m Machine) Banks() int { return m.Mesh.Tiles() }

// TotalBytes returns total LLC capacity.
func (m Machine) TotalBytes() float64 { return m.BankBytes * float64(m.Banks()) }

// WayBytes returns the capacity of one way in one bank — the granularity of
// way-partitioned allocations.
func (m Machine) WayBytes() float64 { return m.BankBytes / float64(m.WaysPerBank) }

// Input is everything a placer needs for one reconfiguration epoch.
type Input struct {
	Machine Machine
	Apps    []AppSpec
	// LatSizes holds the feedback controllers' current target allocation
	// (bytes) for each latency-critical application.
	LatSizes map[AppID]float64
	// Prov, when non-nil, receives placement decision provenance: which
	// candidate banks each placer considered and why losers were
	// eliminated. Nil (the default) is the zero-overhead path — placers
	// hoist in.Prov.Enabled() and skip all record building when off, so
	// disabled runs stay allocation-free and byte-identical.
	Prov *obs.ProvRecorder
}

// Validate checks internal consistency; placers call it on entry.
func (in *Input) Validate() error {
	if in.Machine.Banks() == 0 || in.Machine.BankBytes <= 0 || in.Machine.WaysPerBank <= 0 {
		return fmt.Errorf("core: invalid machine %+v", in.Machine)
	}
	if len(in.Apps) == 0 {
		return fmt.Errorf("core: no applications")
	}
	for i, a := range in.Apps {
		if int(a.Core) < 0 || int(a.Core) >= in.Machine.Banks() {
			return fmt.Errorf("core: app %d (%s) on invalid core %d", i, a.Name, a.Core)
		}
		if a.AccessRate < 0 {
			return fmt.Errorf("core: app %d (%s) has negative access rate", i, a.Name)
		}
		if a.VM < 0 {
			// Placers use -1 as the "no VM" sentinel in per-bank claim/owner
			// tables, so real VM IDs must be non-negative.
			return fmt.Errorf("core: app %d (%s) has negative VM id %d", i, a.Name, a.VM)
		}
		if a.LatencyCritical {
			if _, ok := in.LatSizes[AppID(i)]; !ok {
				return fmt.Errorf("core: latency-critical app %d (%s) has no LatSize", i, a.Name)
			}
		}
	}
	for id, s := range in.LatSizes {
		if int(id) < 0 || int(id) >= len(in.Apps) {
			return fmt.Errorf("core: LatSize for unknown app %d", id)
		}
		if s < 0 {
			return fmt.Errorf("core: negative LatSize %g for app %d", s, id)
		}
	}
	return nil
}

// VMs returns the distinct VM IDs present, in ascending order.
func (in *Input) VMs() []VMID {
	return in.AppendVMs(nil)
}

// AppendVMs is VMs appending to dst (pass dst[:0] to reuse its backing across
// epochs, per the Append protocol) and returning the extended slice. Dedup is
// a linear scan over the appended region — VM counts are bounded by the bank
// count, where the scan beats a map both in time and in allocation.
func (in *Input) AppendVMs(dst []VMID) []VMID {
	base := len(dst)
	for _, a := range in.Apps {
		seen := false
		for _, vm := range dst[base:] {
			if vm == a.VM {
				seen = true
				break
			}
		}
		if !seen {
			dst = append(dst, a.VM)
		}
	}
	sortVMIDs(dst[base:])
	return dst
}

func sortVMIDs(v []VMID) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// AppendAppsOf appends the app IDs in vm, split into latency-critical and
// batch, to latDst and batchDst (pass dst[:0] to reuse backing across
// epochs, per the Append protocol) and returns the extended slices.
func (in *Input) AppendAppsOf(latDst, batchDst []AppID, vm VMID) (latCrit, batch []AppID) {
	for i, a := range in.Apps {
		if a.VM != vm {
			continue
		}
		if a.LatencyCritical {
			latDst = append(latDst, AppID(i))
		} else {
			batchDst = append(batchDst, AppID(i))
		}
	}
	return latDst, batchDst
}

// LatCritApps returns all latency-critical app IDs in app order.
func (in *Input) LatCritApps() []AppID {
	return in.AppendLatCritApps(nil)
}

// AppendLatCritApps is LatCritApps under the Append protocol.
func (in *Input) AppendLatCritApps(dst []AppID) []AppID {
	for i, a := range in.Apps {
		if a.LatencyCritical {
			dst = append(dst, AppID(i))
		}
	}
	return dst
}

// BatchApps returns all batch app IDs in app order.
func (in *Input) BatchApps() []AppID {
	return in.AppendBatchApps(nil)
}

// AppendBatchApps is BatchApps under the Append protocol.
func (in *Input) AppendBatchApps(dst []AppID) []AppID {
	for i, a := range in.Apps {
		if !a.LatencyCritical {
			dst = append(dst, AppID(i))
		}
	}
	return dst
}

// Placer is a complete LLC management design: it maps an Input to a
// Placement each reconfiguration epoch.
type Placer interface {
	// Name identifies the design in reports ("Jumanji", "Jigsaw", ...).
	Name() string
	// PlaceInto computes the epoch's allocation into pl (resetting it
	// first) and returns pl, so an epoch loop reuses one scratch placement
	// instead of allocating a fresh one every reconfiguration.
	// Implementations must return a placement that passes
	// Placement.Validate for the same input.
	PlaceInto(in *Input, pl *Placement) *Placement
}

// PlaceWith runs p.PlaceInto, recycling pl. pl may be nil (a fresh
// placement is allocated).
func PlaceWith(p Placer, in *Input, pl *Placement) *Placement {
	if pl == nil {
		pl = NewPlacement(in.Machine)
	}
	return p.PlaceInto(in, pl)
}

// PlaceWithSpans is PlaceWith timed under the "core.place" phase. The epoch
// runners call it so every reconfiguration's placement cost is visible in
// -spans and /statusz; with spans disabled (nil) Start and Stop return at
// once.
func PlaceWithSpans(p Placer, in *Input, pl *Placement, spans *obs.Spans) *Placement {
	sp := spans.Start("core.place")
	pl = PlaceWith(p, in, pl)
	sp.Stop()
	return pl
}
