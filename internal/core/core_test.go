package core

import (
	"math"
	"math/rand"
	"testing"

	"jumanji/internal/mrc"
	"jumanji/internal/topo"
)

// testWorkload builds the canonical case-study shape: nVMs VMs, each with
// one latency-critical app (low access rate) and nBatch batch apps, threads
// clustered per VM.
func testWorkload(nVMs, nBatch int, rng *rand.Rand) *Input {
	return testWorkloadOn(DefaultMachine(), nVMs, nBatch, rng)
}

// testWorkloadOn is testWorkload on an arbitrary machine — the big-mesh
// scaling tests and benchmarks grow the same workload shape with the mesh.
func testWorkloadOn(m Machine, nVMs, nBatch int, rng *rand.Rand) *Input {
	in := &Input{Machine: m, LatSizes: make(map[AppID]float64)}
	corners := m.Mesh.Corners()
	for vm := 0; vm < nVMs; vm++ {
		latCore := corners[vm%4]
		id := AppID(len(in.Apps))
		in.Apps = append(in.Apps, AppSpec{
			Name:            "latcrit",
			VM:              VMID(vm),
			Core:            latCore,
			LatencyCritical: true,
			MissRatio:       wsCurve(m, 2<<20, 0.02), // 2 MB working set
			AccessRate:      2,                       // low utilization
		})
		in.LatSizes[id] = 2 << 20
		for b := 0; b < nBatch; b++ {
			ws := float64(uint64(1) << (19 + rng.Intn(4))) // 0.5-4 MB
			in.Apps = append(in.Apps, AppSpec{
				Name:       "batch",
				VM:         VMID(vm),
				Core:       topo.TileID((int(latCore) + b + 1) % m.Banks()),
				MissRatio:  wsCurve(m, ws, 0.05),
				AccessRate: 10 + rng.Float64()*30,
			})
		}
	}
	return in
}

// wsCurve builds a smooth miss-ratio curve with the given working set: miss
// ratio decays from 1 toward floor as capacity approaches ws.
func wsCurve(m Machine, ws, floor float64) mrc.Curve {
	unit := m.WayBytes()
	n := int(m.TotalBytes()/unit) + 1
	pts := make([]float64, n)
	for i := range pts {
		s := float64(i) * unit
		ratio := math.Exp(-2 * s / ws)
		pts[i] = floor + (1-floor)*ratio
	}
	return mrc.New(unit, pts)
}

func allPlacers() []Placer {
	return []Placer{
		StaticPlacer{},
		AdaptivePlacer{},
		VMPartPlacer{},
		JigsawPlacer{},
		JumanjiPlacer{},
		JumanjiPlacer{Insecure: true},
		IdealBatchPlacer{},
	}
}

func TestAllPlacersProduceValidPlacements(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := testWorkload(4, 4, rng)
	for _, p := range allPlacers() {
		pl := PlaceWith(p, in, nil)
		if err := pl.Validate(in); err != nil {
			t.Errorf("%s: %v", p.Name(), err)
		}
	}
}

func TestPlacerNamesDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range allPlacers() {
		if seen[p.Name()] {
			t.Errorf("duplicate placer name %q", p.Name())
		}
		seen[p.Name()] = true
	}
}

func TestJumanjiVMIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		in := testWorkload(1+rng.Intn(6), 1+rng.Intn(5), rng)
		// Randomize the controller targets.
		for id := range in.LatSizes {
			in.LatSizes[id] = float64(1+rng.Intn(40)) * in.Machine.WayBytes() * 4
		}
		pl := PlaceWith(JumanjiPlacer{}, in, nil)
		if err := pl.Validate(in); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !pl.IsVMIsolated(in) {
			t.Fatalf("trial %d: Jumanji placement shares a bank across VMs", trial)
		}
	}
}

func TestJumanjiMeetsLatencyReservations(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := testWorkload(4, 4, rng)
	pl := PlaceWith(JumanjiPlacer{}, in, nil)
	for _, app := range in.LatCritApps() {
		got := pl.TotalOf(app)
		want := in.LatSizes[app]
		if got < want-1e-6 {
			t.Errorf("LC app %d got %g bytes, controller asked for %g", app, got, want)
		}
	}
}

func TestJumanjiPlacesLatCritNearby(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	in := testWorkload(4, 4, rng)
	pl := PlaceWith(JumanjiPlacer{}, in, nil)
	for _, app := range in.LatCritApps() {
		hops := pl.AvgHops(app, in.Apps[app].Core)
		// A 2 MB allocation fits in 2 banks; nearest banks are ≤ 1 hop.
		if hops > 1.5 {
			t.Errorf("LC app %d average hops %.2f — not placed nearby", app, hops)
		}
	}
}

func TestJigsawStarvesLatencyCritical(t *testing.T) {
	// The paper's central observation (Fig. 4b): Jigsaw, caring only about
	// data movement, gives low-utilization latency-critical apps much less
	// space than their deadline requires.
	rng := rand.New(rand.NewSource(5))
	in := testWorkload(4, 4, rng)
	jig := PlaceWith(JigsawPlacer{}, in, nil)
	jum := PlaceWith(JumanjiPlacer{}, in, nil)
	for _, app := range in.LatCritApps() {
		if jig.TotalOf(app) > 0.5*jum.TotalOf(app) {
			t.Errorf("LC app %d: Jigsaw gave %g, Jumanji %g — expected Jigsaw to starve it",
				app, jig.TotalOf(app), jum.TotalOf(app))
		}
	}
}

func TestStaticGivesFourWays(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	in := testWorkload(4, 4, rng)
	pl := PlaceWith(StaticPlacer{}, in, nil)
	want := 4 * in.Machine.WayBytes() * float64(in.Machine.Banks())
	for _, app := range in.LatCritApps() {
		if got := pl.TotalOf(app); math.Abs(got-want) > 1 {
			t.Errorf("LC app %d: %g bytes, want %g (4 ways)", app, got, want)
		}
	}
}

func TestSNUCADesignsShareEveryBank(t *testing.T) {
	// Adaptive and VM-Part stripe everything: every bank holds every app's
	// data — that is exactly why they are fully vulnerable to port attacks
	// (Fig. 14: 15 potential attackers).
	rng := rand.New(rand.NewSource(7))
	in := testWorkload(4, 4, rng)
	for _, p := range []Placer{AdaptivePlacer{}, VMPartPlacer{}} {
		pl := PlaceWith(p, in, nil)
		for b := 0; b < in.Machine.Banks(); b++ {
			apps := pl.AppendAppsInBank(nil, topo.TileID(b))
			if len(apps) != len(in.Apps) {
				t.Errorf("%s: bank %d holds %d apps, want all %d", p.Name(), b, len(apps), len(in.Apps))
			}
		}
		if pl.IsVMIsolated(in) {
			t.Errorf("%s: S-NUCA design cannot be VM-isolated", p.Name())
		}
	}
}

func TestVMPartReducesBatchAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	in := testWorkload(4, 4, rng)
	vp := PlaceWith(VMPartPlacer{}, in, nil)
	ad := PlaceWith(AdaptivePlacer{}, in, nil)
	for _, app := range in.BatchApps() {
		if vp.MeanWays(app) >= ad.MeanWays(app) {
			t.Errorf("batch app %d: VM-Part ways %.1f !< Adaptive ways %.1f",
				app, vp.MeanWays(app), ad.MeanWays(app))
		}
	}
}

func TestDNUCAKeepsHighAssociativity(t *testing.T) {
	// Jumanji's security argument (Sec. VI-C): D-NUCA partitions have far
	// more effective ways than S-NUCA way-partitioning.
	rng := rand.New(rand.NewSource(9))
	in := testWorkload(4, 4, rng)
	jum := PlaceWith(JumanjiPlacer{}, in, nil)
	vp := PlaceWith(VMPartPlacer{}, in, nil)
	var jumWays, vpWays float64
	batch := in.BatchApps()
	for _, app := range batch {
		jumWays += jum.MeanWays(app)
		vpWays += vp.MeanWays(app)
	}
	if jumWays <= vpWays {
		t.Errorf("mean batch ways: Jumanji %.1f <= VM-Part %.1f", jumWays/float64(len(batch)), vpWays/float64(len(batch)))
	}
}

func TestJumanjiInsecureNotIsolatedButNearby(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	in := testWorkload(4, 4, rng)
	pl := PlaceWith(JumanjiPlacer{Insecure: true}, in, nil)
	if err := pl.Validate(in); err != nil {
		t.Fatal(err)
	}
	// Insecure still reserves LC space.
	for _, app := range in.LatCritApps() {
		if pl.TotalOf(app) < in.LatSizes[app]-1e-6 {
			t.Errorf("Insecure shortchanged LC app %d", app)
		}
	}
}

func TestIdealBatchOverlay(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	in := testWorkload(4, 4, rng)
	pl := PlaceWith(IdealBatchPlacer{}, in, nil)
	if err := pl.Validate(in); err != nil {
		t.Fatal(err)
	}
	for _, app := range in.BatchApps() {
		if !pl.Overlay(app) {
			t.Errorf("batch app %d not in overlay", app)
		}
	}
	for _, app := range in.LatCritApps() {
		if pl.Overlay(app) {
			t.Errorf("LC app %d must stay in the physical LLC", app)
		}
	}
	// Physical banks only hold LC data, so BankUsed excludes the overlay.
	total := 0.0
	for b := 0; b < in.Machine.Banks(); b++ {
		total += pl.BankUsed(topo.TileID(b))
	}
	latTotal := 0.0
	for _, app := range in.LatCritApps() {
		latTotal += pl.TotalOf(app)
	}
	if math.Abs(total-latTotal) > 1 {
		t.Errorf("physical usage %g != latency-critical total %g", total, latTotal)
	}
}

func TestWayMasksDisjointAndSized(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	in := testWorkload(4, 4, rng)
	for _, p := range []Placer{JumanjiPlacer{}, JigsawPlacer{}} {
		pl := PlaceWith(p, in, nil)
		for b := 0; b < in.Machine.Banks(); b++ {
			masks := pl.WayMasks(topo.TileID(b))
			var union uint64
			for app, mask := range masks {
				if mask&union != 0 {
					t.Fatalf("%s bank %d: app %d mask overlaps", p.Name(), b, app)
				}
				union |= mask
			}
			if popcount(union) > in.Machine.WaysPerBank {
				t.Fatalf("%s bank %d: masks exceed associativity", p.Name(), b)
			}
		}
	}
}

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

func TestDescriptorReflectsAllocation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	in := testWorkload(4, 4, rng)
	pl := PlaceWith(JumanjiPlacer{}, in, nil)
	for i := range in.Apps {
		app := AppID(i)
		d, ok := pl.Descriptor(app)
		if !ok {
			t.Fatalf("app %d has no descriptor", app)
		}
		banks, bytes := pl.BanksOf(app)
		total := 0.0
		for _, by := range bytes {
			total += by
		}
		shares := d.Shares()
		for j, b := range banks {
			want := bytes[j] / total
			if math.Abs(shares[b]-want) > 0.02 {
				t.Errorf("app %d bank %d share %.3f, want %.3f", app, b, shares[b], want)
			}
		}
	}
}

func TestJumanjiSafetyValveScalesDown(t *testing.T) {
	// Controllers demanding more than the whole LLC: the placer must scale
	// down rather than panic.
	rng := rand.New(rand.NewSource(14))
	in := testWorkload(4, 4, rng)
	for id := range in.LatSizes {
		in.LatSizes[id] = in.Machine.TotalBytes() // absurd demand
	}
	pl := PlaceWith(JumanjiPlacer{}, in, nil)
	if err := pl.Validate(in); err != nil {
		t.Fatal(err)
	}
	if !pl.IsVMIsolated(in) {
		t.Error("isolation lost under the safety valve")
	}
}

func TestJumanjiTooManyVMs(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	in := testWorkload(21, 0, rng) // 21 VMs > 20 banks
	defer func() {
		if recover() == nil {
			t.Error("expected panic when VMs exceed banks")
		}
	}()
	PlaceWith(JumanjiPlacer{}, in, nil)
}

func TestSingleVMJumanji(t *testing.T) {
	// Fig. 17 starts at one VM (no isolation constraint binds).
	rng := rand.New(rand.NewSource(16))
	in := testWorkload(1, 8, rng)
	pl := PlaceWith(JumanjiPlacer{}, in, nil)
	if err := pl.Validate(in); err != nil {
		t.Fatal(err)
	}
	if !pl.IsVMIsolated(in) {
		t.Error("single VM is trivially isolated")
	}
}

func TestManyVMsJumanji(t *testing.T) {
	// Fig. 17's 12-VM point.
	rng := rand.New(rand.NewSource(17))
	in := testWorkload(12, 1, rng)
	pl := PlaceWith(JumanjiPlacer{}, in, nil)
	if err := pl.Validate(in); err != nil {
		t.Fatal(err)
	}
	if !pl.IsVMIsolated(in) {
		t.Error("12-VM placement not isolated")
	}
}

func TestInputValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	good := testWorkload(2, 2, rng)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid input rejected: %v", err)
	}
	bad := testWorkload(2, 2, rng)
	bad.Apps[0].Core = 99
	if bad.Validate() == nil {
		t.Error("invalid core accepted")
	}
	bad2 := testWorkload(2, 2, rng)
	delete(bad2.LatSizes, 0)
	if bad2.Validate() == nil {
		t.Error("missing LatSize accepted")
	}
	bad3 := testWorkload(2, 2, rng)
	bad3.Apps = nil
	if bad3.Validate() == nil {
		t.Error("empty workload accepted")
	}
}

func TestVMsAndAppsOf(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	in := testWorkload(3, 2, rng)
	vms := in.VMs()
	if len(vms) != 3 || vms[0] != 0 || vms[2] != 2 {
		t.Errorf("VMs = %v", vms)
	}
	lat, batch := in.AppendAppsOf(nil, nil, 1)
	if len(lat) != 1 || len(batch) != 2 {
		t.Errorf("AppendAppsOf(1) = %v, %v", lat, batch)
	}
	if len(in.LatCritApps()) != 3 || len(in.BatchApps()) != 6 {
		t.Error("LatCritApps/BatchApps counts wrong")
	}
}

func TestPlacementAccessors(t *testing.T) {
	m := DefaultMachine()
	pl := NewPlacement(m)
	pl.Add(0, 3, 100)
	pl.Add(0, 5, 300)
	pl.Add(0, 5, -10) // no-op
	if pl.TotalOf(0) != 400 {
		t.Errorf("TotalOf = %v", pl.TotalOf(0))
	}
	banks, bytes := pl.BanksOf(0)
	if len(banks) != 2 || banks[0] != 3 || bytes[1] != 300 {
		t.Errorf("BanksOf = %v %v", banks, bytes)
	}
	if got := pl.BankUsed(5); got != 300 {
		t.Errorf("BankUsed = %v", got)
	}
	if apps := pl.AppendAppsInBank(nil, 5); len(apps) != 1 || apps[0] != 0 {
		t.Errorf("AppendAppsInBank = %v", apps)
	}
}

func TestJumanjiOversubscription(t *testing.T) {
	// More VMs than banks on a small machine: with AllowOversubscription
	// the placer folds VMs into bank groups, marks them time-shared, and
	// still produces a valid placement; without the flag it panics.
	m := Machine{Mesh: topo.NewMesh(2, 2), BankBytes: 1 << 20, WaysPerBank: 16}
	in := &Input{Machine: m, LatSizes: map[AppID]float64{}}
	for vm := 0; vm < 8; vm++ { // 8 single-app VMs on 4 banks
		in.Apps = append(in.Apps, AppSpec{
			Name:       "app",
			VM:         VMID(vm),
			Core:       topo.TileID(vm % m.Banks()),
			MissRatio:  wsCurve(m, 512<<10, 0.1),
			AccessRate: 10,
		})
	}
	pl := PlaceWith(JumanjiPlacer{AllowOversubscription: true}, in, nil)
	if err := pl.Validate(in); err != nil {
		t.Fatal(err)
	}
	shared := 0
	for i := range in.Apps {
		if s := pl.TimeShared(AppID(i)); s > 0 {
			shared++
			if s != 0.5 {
				t.Errorf("app %d time share = %v, want 0.5 (two VMs per group)", i, s)
			}
		}
	}
	if shared != len(in.Apps) {
		t.Errorf("%d of %d apps marked time-shared; with 8 VMs on 4 banks all should be", shared, len(in.Apps))
	}

	defer func() {
		if recover() == nil {
			t.Error("without AllowOversubscription this workload should panic")
		}
	}()
	PlaceWith(JumanjiPlacer{}, in, nil)
}

func TestOversubscriptionNotUsedWhenVMsFit(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	in := testWorkload(4, 4, rng)
	pl := PlaceWith(JumanjiPlacer{AllowOversubscription: true}, in, nil)
	if timeSharedCount(pl) != 0 {
		t.Error("time-sharing engaged although VMs fit in banks")
	}
	if !pl.IsVMIsolated(in) {
		t.Error("isolation lost")
	}
}

func TestMovedFraction(t *testing.T) {
	m := DefaultMachine()
	old := NewPlacement(m)
	old.Add(0, 0, 100)
	old.Add(0, 1, 100)

	// Pure resize with identical shares: nothing moves.
	resized := NewPlacement(m)
	resized.Add(0, 0, 50)
	resized.Add(0, 1, 50)
	if f := resized.MovedFraction(0, old); f != 0 {
		t.Errorf("pure resize moved %v, want 0", f)
	}

	// Full relocation to different banks: everything moves.
	moved := NewPlacement(m)
	moved.Add(0, 5, 200)
	if f := moved.MovedFraction(0, old); f != 1 {
		t.Errorf("full relocation moved %v, want 1", f)
	}

	// Half the distribution re-homed.
	half := NewPlacement(m)
	half.Add(0, 0, 100)
	half.Add(0, 7, 100)
	if f := half.MovedFraction(0, old); f != 0.5 {
		t.Errorf("half relocation moved %v, want 0.5", f)
	}

	// First epoch and empty allocations move nothing.
	if f := moved.MovedFraction(0, nil); f != 0 {
		t.Errorf("nil prev moved %v", f)
	}
	if f := moved.MovedFraction(9, old); f != 0 {
		t.Errorf("absent app moved %v", f)
	}
}

func TestFixedPlacerBothModes(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	in := testWorkload(4, 4, rng)
	for _, nearest := range []bool{false, true} {
		p := FixedPlacer{Nearest: nearest}
		if p.Name() == "" {
			t.Error("empty name")
		}
		pl := PlaceWith(p, in, nil)
		if err := pl.Validate(in); err != nil {
			t.Fatalf("nearest=%v: %v", nearest, err)
		}
		// Fixed allocations honor LatSizes exactly (modulo the one-way floor).
		for _, app := range in.LatCritApps() {
			if got := pl.TotalOf(app); math.Abs(got-in.LatSizes[app]) > in.Machine.WayBytes() {
				t.Errorf("nearest=%v app %d: %g bytes, want %g", nearest, app, got, in.LatSizes[app])
			}
		}
	}
	// D-NUCA mode places closer than S-NUCA mode.
	near := PlaceWith(FixedPlacer{Nearest: true}, in, nil)
	far := PlaceWith(FixedPlacer{Nearest: false}, in, nil)
	app := in.LatCritApps()[0]
	if near.AvgHops(app, in.Apps[app].Core) >= far.AvgHops(app, in.Apps[app].Core) {
		t.Error("nearest mode not closer than striped mode")
	}
}

func TestFixedPlacerNames(t *testing.T) {
	if (FixedPlacer{Nearest: true}).Name() == (FixedPlacer{Nearest: false}).Name() {
		t.Error("modes share a name")
	}
}

func TestRawCurveJigsaw(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	in := testWorkload(4, 4, rng)
	p := RawCurveJigsawPlacer{}
	if p.Name() == "" {
		t.Error("empty name")
	}
	pl := PlaceWith(p, in, nil)
	if err := pl.Validate(in); err != nil {
		t.Fatal(err)
	}
}

func TestTradeAdjust(t *testing.T) {
	m := DefaultMachine()
	pl := NewPlacement(m)
	pl.adjust(0, 3, 100)
	pl.adjust(0, 3, 50)
	if pl.TotalOf(0) != 150 {
		t.Errorf("TotalOf = %v", pl.TotalOf(0))
	}
	pl.adjust(0, 3, -150)
	if banks, _ := pl.BanksOf(0); len(banks) != 0 {
		t.Errorf("zeroed share not removed: %v", banks)
	}
	// Adjusting an app with no allocation row yet works too.
	pl.adjust(7, 1, 42)
	if pl.TotalOf(7) != 42 {
		t.Errorf("fresh app TotalOf = %v", pl.TotalOf(7))
	}
}

func TestTradePlacerName(t *testing.T) {
	p := &TradePlacer{}
	if p.Name() == "" {
		t.Error("empty name")
	}
}

// timeSharedCount returns how many of pl's applications are time-shared.
func timeSharedCount(pl *Placement) int {
	n := 0
	for app := 0; app < pl.napps; app++ {
		if pl.TimeShared(AppID(app)) > 0 {
			n++
		}
	}
	return n
}

// AppendAppsInBank appends the applications holding space in bank b to dst,
// ascending, and returns it. Overlay applications are excluded: they are not
// physically in the bank. The placement tests read banks through it; with a
// reused dst[:0] it does not allocate.
func (p *Placement) AppendAppsInBank(dst []AppID, b topo.TileID) []AppID {
	for app := 0; app < p.napps; app++ {
		if p.overlay[app] {
			continue
		}
		if p.alloc[app*p.banks+int(b)] > 0 {
			dst = append(dst, AppID(app))
		}
	}
	return dst
}

// AppendVMsSharingBank appends the distinct VMs with physical space in bank
// b to dst (ascending) and returns it. Passing a reused dst[:0] makes the
// call allocation-free.
func (p *Placement) AppendVMsSharingBank(dst []VMID, in *Input, b topo.TileID) []VMID {
	start := len(dst)
	for app := 0; app < p.napps; app++ {
		if p.overlay[app] || p.alloc[app*p.banks+int(b)] <= 0 {
			continue
		}
		vm := in.Apps[app].VM
		seen := false
		for _, v := range dst[start:] {
			if v == vm {
				seen = true
				break
			}
		}
		if !seen {
			dst = append(dst, vm)
		}
	}
	sortVMIDs(dst[start:])
	return dst
}
