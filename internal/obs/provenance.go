package obs

// Placement decision provenance (schema v3): the fifth sink. Where the
// metrics/events/trace/tsdb sinks record *what* a run did, the provenance
// sink records *why* every VM and app landed where it did — the candidate
// banks each placer considered, the lookahead/marginal-rate score behind
// the choice, and the constraint that eliminated every candidate it passed
// over. Records share the event-log envelope and merge in cell order like
// the other sinks, so provenance logs from parallel sweeps are
// byte-identical to serial runs.
//
// The hot path is alloc-guarded: every ProvRecorder method is nil-safe and
// returns before touching any state when the recorder is nil or disabled,
// so a run without -provenance pays one pointer test per instrumentation
// site and zero allocations (TestAllocGuardProvenance pins this).

// Provenance stages: which phase of a placer produced a decision. One
// decision record is keyed by (stage, vm, app); app is -1 for VM-level
// decisions (bank entitlement, region assignment).
const (
	// StageLatCrit is latency-critical data placement: nearest-first bank
	// filling with per-VM exclusivity (latCritPlace).
	StageLatCrit = "lat-crit"
	// StageVMBanks is Jumanji's per-VM bank-isolation step: lookahead over
	// combined batch curves, then round-robin nearest-free-bank claiming.
	StageVMBanks = "vm-banks"
	// StageBatch is Jigsaw-style batch placement: lookahead sizing then
	// greedy nearest-first filling inside the allowed bank mask.
	StageBatch = "batch"
	// StageOverlayBanks is IdealBatch's overlay-LLC bank assignment.
	StageOverlayBanks = "overlay-banks"
	// StageVMWays is VM-Part's per-VM way division of the batch pool.
	StageVMWays = "vm-ways"
	// StageStripe is S-NUCA striping across every bank (Static, Adaptive,
	// VM-Part, Fixed): no candidates, the whole mesh is the placement.
	StageStripe = "stripe"
	// StageTrade is the Trade placer's hit/miss-latency bank trades.
	StageTrade = "trade"
	// StageRegionAssign is the Sharded wrapper's stage 1: assigning VMs to
	// mesh regions. Candidate "banks" are region IDs.
	StageRegionAssign = "region-assign"
)

// Elimination reasons: why a candidate bank (or region) was passed over.
const (
	// ElimSecurityDomain: the bank is claimed by a different VM and per-VM
	// bank isolation (the security-domain constraint) forbids sharing it.
	ElimSecurityDomain = "security-domain-conflict"
	// ElimCapacity: the bank (or region) had no free capacity left.
	ElimCapacity = "capacity"
	// ElimWayQuantum: the allocation quantum (one way / one bank) made the
	// candidate infeasible at the granted size.
	ElimWayQuantum = "way-quantum"
	// ElimRegionBoundary: the sharded wrapper's region partitioning ruled
	// the candidate out (region full, or bank outside the VM's region).
	ElimRegionBoundary = "region-boundary"
	// ElimDistance: a free candidate lost to a strictly closer bank.
	ElimDistance = "distance"
	// ElimDistanceTie: a free candidate at the same distance lost the
	// deterministic lowest-index tie-break.
	ElimDistanceTie = "distance-tie-break"
	// ElimTradeNoCompensation: a Trade far-bank candidate was rejected
	// because no affordable batch compensation existed.
	ElimTradeNoCompensation = "compensation-infeasible"
	// ElimTradeDonorCost: a Trade candidate was rejected because the donor
	// batch app's extra misses outweighed the latency-critical hop gain.
	ElimTradeDonorCost = "donor-miss-cost"
)

// Fallback valves: the fleet-scale safety valves (PR 8) that relax an
// infeasible placement instead of panicking. One placement_valve record is
// emitted per firing.
const (
	// ValveShrinkLatSizes: Jumanji/IdealBatch shrank every latency-critical
	// target by 10% and retried the whole placement.
	ValveShrinkLatSizes = "shrink-lat-sizes"
	// ValveBankMinStepUp: a VM's minimum bank entitlement was stepped up by
	// one bank so way-granular claims fold into whole banks.
	ValveBankMinStepUp = "bank-min-step-up"
	// ValveWayQuantumRescale: the one-way-per-app minimum exceeded the
	// VM's bank capacity; Min/Step were scaled down proportionally.
	ValveWayQuantumRescale = "way-quantum-rescale"
	// ValveVMQuantumRescale: VM-Part's one-way-per-VM minimum exceeded the
	// batch pool; the quantum was scaled down.
	ValveVMQuantumRescale = "vm-quantum-rescale"
	// ValveStaticWayRescale: Static's fixed per-app ways exceeded the
	// associativity; ways per app were split equally instead.
	ValveStaticWayRescale = "static-way-rescale"
	// ValveAdaptiveScaleDown: controller demand exceeded the LLC minus the
	// batch reserve; latency-critical stripes were scaled proportionally.
	ValveAdaptiveScaleDown = "adaptive-scale-down"
	// ValveOverlayBudgetBump: IdealBatch's overlay budget was bumped to one
	// bank per VM after latency-critical data consumed nearly everything.
	ValveOverlayBudgetBump = "overlay-budget-bump"
	// ValveRegionFallback: no nearby region could hold the VM; the sharded
	// wrapper fell back to the most-free count-feasible region.
	ValveRegionFallback = "region-fallback"
	// ValveRegionDegrade: per-region entitlements exceeded region capacity;
	// the sharded wrapper degraded the batch balance floor.
	ValveRegionDegrade = "region-entitlement-degrade"
	// ValveOversubscriptionFold: more VMs than banks; VMs were folded into
	// time-shared groups before placement.
	ValveOversubscriptionFold = "oversubscription-fold"
)

func knownProvStage(s string) bool {
	switch s {
	case StageLatCrit, StageVMBanks, StageBatch, StageOverlayBanks,
		StageVMWays, StageStripe, StageTrade, StageRegionAssign:
		return true
	}
	return false
}

func knownElimReason(r string) bool {
	switch r {
	case ElimSecurityDomain, ElimCapacity, ElimWayQuantum,
		ElimRegionBoundary, ElimDistance, ElimDistanceTie,
		ElimTradeNoCompensation, ElimTradeDonorCost:
		return true
	}
	return false
}

func knownProvValve(v string) bool {
	switch v {
	case ValveShrinkLatSizes, ValveBankMinStepUp, ValveWayQuantumRescale,
		ValveVMQuantumRescale, ValveStaticWayRescale, ValveAdaptiveScaleDown,
		ValveOverlayBudgetBump, ValveRegionFallback, ValveRegionDegrade,
		ValveOversubscriptionFold:
		return true
	}
	return false
}

// maxCandidatesPerDecision caps the recorded candidate list of one
// decision. Dense meshes consider hundreds of banks per app; past the cap
// further eliminations only bump Truncated so record size stays bounded.
const maxCandidatesPerDecision = 32

// BankCandidate is one bank (or region, in the region-assign stage) a
// placer considered for a decision. Exactly one of TakenBytes>0 (chosen,
// possibly among others in multi-bank fills) or Eliminated!="" holds.
type BankCandidate struct {
	// Bank is the global bank index — or the region ID in region-assign.
	Bank int `json:"bank"`
	// Dist is the hop distance from the deciding VM's core (region-assign:
	// hops to the region centroid).
	Dist int `json:"dist"`
	// AvailBytes is the bank's free capacity when it was considered.
	AvailBytes float64 `json:"avail_bytes,omitempty"`
	// TakenBytes is how much the placer put on this bank (0 if eliminated).
	TakenBytes float64 `json:"taken_bytes,omitempty"`
	// Eliminated names the constraint that ruled the candidate out (one of
	// the Elim* constants), empty for chosen banks.
	Eliminated string `json:"eliminated,omitempty"`
}

// PlacementDecision is one placed VM or app: what it asked for, what it
// got, and every candidate considered along the way. Emitted once per
// (stage, vm, app) per reconfiguration; app is -1 for VM-level decisions.
type PlacementDecision struct {
	Epoch  int     `json:"epoch"`
	TimeUs float64 `json:"time_us"`
	Design string  `json:"design"`
	Stage  string  `json:"stage"`
	VM     int     `json:"vm"`
	App    int     `json:"app"`
	Name   string  `json:"name,omitempty"`
	// LatencyCritical mirrors the app spec (false for VM-level decisions).
	LatencyCritical bool `json:"lat_crit,omitempty"`
	// Region is the sharded region the decision was made in, -1 when flat.
	Region int `json:"region"`
	// TargetBytes is the size the placer aimed for; PlacedBytes what the
	// candidates actually absorbed (less than target when capacity ran out).
	TargetBytes float64 `json:"target_bytes"`
	PlacedBytes float64 `json:"placed_bytes"`
	// Score is the placer's lookahead signal for this decision — the
	// projected miss rate (misses/cycle) of the granted allocation, or the
	// marginal-rate ordering key, depending on stage.
	Score float64 `json:"score,omitempty"`
	// Candidates lists considered banks in consideration order, capped at
	// maxCandidatesPerDecision; Truncated counts the overflow.
	Candidates []BankCandidate `json:"candidates,omitempty"`
	Truncated  int             `json:"truncated,omitempty"`
}

// PlacementValve records one firing of a fleet-scale fallback valve.
type PlacementValve struct {
	Epoch  int     `json:"epoch"`
	TimeUs float64 `json:"time_us"`
	Design string  `json:"design"`
	Valve  string  `json:"valve"`
	// VM is the affected VM, -1 when the valve is placement-wide.
	VM int `json:"vm"`
	// Attempt is the retry attempt the valve fired on (shrink loops).
	Attempt int `json:"attempt,omitempty"`
	// Scale is the multiplicative relaxation applied, when one exists.
	Scale float64 `json:"scale,omitempty"`
	// Detail is a free-form hint (e.g. the fallback region chosen).
	Detail string `json:"detail,omitempty"`
}

// EmitPlacementDecision appends a placement_decision record.
func (l *EventLog) EmitPlacementDecision(d *PlacementDecision) {
	if l == nil {
		return
	}
	l.emit(TypePlacementDecision, d)
}

// EmitPlacementValve appends a placement_valve record.
func (l *EventLog) EmitPlacementValve(v *PlacementValve) {
	if l == nil {
		return
	}
	l.emit(TypePlacementValve, v)
}

type provKey struct {
	stage string
	vm    int
	app   int
}

// ProvRecorder accumulates one reconfiguration's placement decisions and
// flushes them to the provenance sink in deterministic insertion order.
// Placers call the instrumentation methods mid-placement; the system layer
// owns the epoch lifecycle (StartEpoch → placer runs → Flush).
//
// A nil *ProvRecorder is the disabled sink: every method returns
// immediately, allocation-free, so placers can call unconditionally — but
// hot loops should hoist `on := in.Prov.Enabled()` and skip argument
// computation (hop distances etc.) when off.
//
// ProvRecorder is not safe for concurrent use. The sharded wrapper gives
// each region's inner placement a private sub-recorder (Region) and folds
// it back with Adopt, so an inner shrink-retry's Attempt reset discards only
// that region's own decisions, not those of the stage-1 region assignment
// or of earlier regions.
type ProvRecorder struct {
	log    *EventLog
	design string
	names  []string // app id → name, for record labelling
	epoch  int
	timeUs float64

	// Region-scoped sub-recorder state: region is the region ID stamped
	// into records (-1 for flat/parent recorders); mapApp/mapBank translate
	// the inner placer's local IDs to global ones at record time.
	region  int
	mapApp  func(int) int
	mapBank func(int) int

	decisions []PlacementDecision
	idx       map[provKey]int
	valves    []PlacementValve
}

// NewProvRecorder builds an enabled recorder flushing into log. names maps
// global AppID to display name (may be nil). design is the placer name
// stamped into every record.
func NewProvRecorder(log *EventLog, design string, names []string) *ProvRecorder {
	return &ProvRecorder{
		log:    log,
		design: design,
		names:  names,
		region: -1,
		idx:    make(map[provKey]int),
	}
}

// Enabled reports whether instrumentation should record. Nil-safe.
func (r *ProvRecorder) Enabled() bool { return r != nil }

// StartEpoch resets the recorder for a new reconfiguration boundary.
func (r *ProvRecorder) StartEpoch(epoch int, timeUs float64) {
	if r == nil {
		return
	}
	r.epoch = epoch
	r.timeUs = timeUs
	r.reset()
	r.valves = r.valves[:0]
}

// Attempt discards the decisions of a failed placement attempt (the
// shrink-and-retry loops re-place from scratch) while keeping the valve
// trail, so only the successful attempt's decisions survive to Flush.
func (r *ProvRecorder) Attempt() {
	if r == nil {
		return
	}
	r.reset()
}

func (r *ProvRecorder) reset() {
	r.decisions = r.decisions[:0]
	clear(r.idx)
}

// ensure returns the decision record for (stage, vm, app), creating it in
// insertion order on first touch.
func (r *ProvRecorder) ensure(stage string, vm, app int) *PlacementDecision {
	k := provKey{stage: stage, vm: vm, app: app}
	if i, ok := r.idx[k]; ok {
		return &r.decisions[i]
	}
	r.idx[k] = len(r.decisions)
	r.decisions = append(r.decisions, PlacementDecision{
		Epoch:  r.epoch,
		TimeUs: r.timeUs,
		Design: r.design,
		Stage:  stage,
		VM:     vm,
		App:    app,
		Region: r.region,
	})
	return &r.decisions[len(r.decisions)-1]
}

// Decision opens (or updates) the record for one placement decision.
// app is -1 for VM-level decisions. Nil-safe.
func (r *ProvRecorder) Decision(stage string, vm, app int, latCrit bool, targetBytes float64) {
	if r == nil {
		return
	}
	if r.mapApp != nil && app >= 0 {
		app = r.mapApp(app)
	}
	d := r.ensure(stage, vm, app)
	d.LatencyCritical = latCrit
	d.TargetBytes = targetBytes
}

// Score attaches the placer's lookahead/marginal-rate score. Nil-safe.
func (r *ProvRecorder) Score(stage string, vm, app int, score float64) {
	if r == nil {
		return
	}
	if r.mapApp != nil && app >= 0 {
		app = r.mapApp(app)
	}
	r.ensure(stage, vm, app).Score = score
}

// Eliminated records a candidate bank ruled out by reason. Nil-safe.
func (r *ProvRecorder) Eliminated(stage string, vm, app, bank, dist int, avail float64, reason string) {
	if r == nil {
		return
	}
	if r.mapApp != nil && app >= 0 {
		app = r.mapApp(app)
	}
	if r.mapBank != nil {
		bank = r.mapBank(bank)
	}
	d := r.ensure(stage, vm, app)
	if len(d.Candidates) >= maxCandidatesPerDecision {
		d.Truncated++
		return
	}
	d.Candidates = append(d.Candidates, BankCandidate{
		Bank:       bank,
		Dist:       dist,
		AvailBytes: avail,
		Eliminated: reason,
	})
}

// Placed records bytes granted on a chosen candidate bank. Nil-safe.
func (r *ProvRecorder) Placed(stage string, vm, app, bank, dist int, bytes float64) {
	if r == nil {
		return
	}
	if r.mapApp != nil && app >= 0 {
		app = r.mapApp(app)
	}
	if r.mapBank != nil {
		bank = r.mapBank(bank)
	}
	d := r.ensure(stage, vm, app)
	d.PlacedBytes += bytes
	if len(d.Candidates) >= maxCandidatesPerDecision {
		d.Truncated++
		return
	}
	d.Candidates = append(d.Candidates, BankCandidate{
		Bank:       bank,
		Dist:       dist,
		TakenBytes: bytes,
	})
}

// Simple records a candidate-free decision (striping, shared pools): the
// whole mesh is the placement and nothing was eliminated. Nil-safe.
func (r *ProvRecorder) Simple(stage string, vm, app int, latCrit bool, target, placed float64) {
	if r == nil {
		return
	}
	if r.mapApp != nil && app >= 0 {
		app = r.mapApp(app)
	}
	d := r.ensure(stage, vm, app)
	d.LatencyCritical = latCrit
	d.TargetBytes = target
	d.PlacedBytes += placed
}

// Valve records a fallback valve firing. vm is -1 when placement-wide.
// Valves survive Attempt resets: a retry's valve trail is the rationale.
func (r *ProvRecorder) Valve(valve string, vm, attempt int, scale float64, detail string) {
	if r == nil {
		return
	}
	r.valves = append(r.valves, PlacementValve{
		Epoch:   r.epoch,
		TimeUs:  r.timeUs,
		Design:  r.design,
		Valve:   valve,
		VM:      vm,
		Attempt: attempt,
		Scale:   scale,
		Detail:  detail,
	})
}

// Region derives a private sub-recorder for one sharded region. Records
// made through it carry the region ID and are translated to global app and
// bank IDs via mapApp/mapBank at record time. The sub-recorder has no sink
// of its own; the parent absorbs it with Adopt. Nil-safe (returns nil).
func (r *ProvRecorder) Region(region int, mapApp, mapBank func(int) int) *ProvRecorder {
	if r == nil {
		return nil
	}
	return &ProvRecorder{
		design:  r.design,
		names:   r.names,
		epoch:   r.epoch,
		timeUs:  r.timeUs,
		region:  region,
		mapApp:  mapApp,
		mapBank: mapBank,
		idx:     make(map[provKey]int),
	}
}

// Adopt appends a region sub-recorder's decisions and valves. Callers
// adopt regions in ascending region order, which fixes the flushed order.
// Nil-safe on both sides.
func (r *ProvRecorder) Adopt(sub *ProvRecorder) {
	if r == nil || sub == nil {
		return
	}
	for i := range sub.decisions {
		d := &sub.decisions[i]
		k := provKey{stage: d.Stage, vm: d.VM, app: d.App}
		r.idx[k] = len(r.decisions)
		r.decisions = append(r.decisions, *d)
	}
	r.valves = append(r.valves, sub.valves...)
}

// Flush labels, emits, and clears the accumulated records: valves first
// (the preconditions), then decisions, both in insertion order.
func (r *ProvRecorder) Flush() {
	if r == nil {
		return
	}
	for i := range r.valves {
		r.log.EmitPlacementValve(&r.valves[i])
	}
	for i := range r.decisions {
		d := &r.decisions[i]
		if d.App >= 0 && d.App < len(r.names) {
			d.Name = r.names[d.App]
		}
		r.log.EmitPlacementDecision(d)
	}
	r.valves = r.valves[:0]
	r.reset()
}
