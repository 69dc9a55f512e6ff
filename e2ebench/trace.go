package main

import (
	"math"
	"runtime"
	"time"

	"jumanji/internal/core"
	"jumanji/internal/lookahead"
	"jumanji/internal/mrc"
	"jumanji/internal/system"
	"jumanji/internal/tailbench"
)

// Input sampling for the layer replays: every sampleEvery-th placement of
// a design is kept, up to maxSamples per design.
const (
	sampleEvery = 40
	maxSamples  = 12
)

// placeStats accumulates one design's placements.
type placeStats struct {
	us      []float64 // per call
	allocs  uint64    // heap objects over all calls
	samples []*core.Input
	// Placement time and the wrapper's own time since the run began.
	inRun, overhead time.Duration
}

// timedPlacer wraps a placer to time each placement and count its heap
// allocations. It delegates to core.PlaceWith, so system.Run receives the
// placement the wrapped placer computes (TestTimedPlacerParity).
type timedPlacer struct {
	inner core.Placer
	st    *placeStats
}

func (p timedPlacer) Name() string { return p.inner.Name() }

func (p timedPlacer) Place(in *core.Input) *core.Placement { return p.PlaceInto(in, nil) }

func (p timedPlacer) PlaceInto(in *core.Input, pl *core.Placement) *core.Placement {
	enter := time.Now()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	pl = core.PlaceWith(p.inner, in, pl)
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	st := p.st
	st.allocs += m1.Mallocs - m0.Mallocs
	st.inRun += d
	if len(st.us)%sampleEvery == 0 && len(st.samples) < maxSamples {
		st.samples = append(st.samples, cloneInput(in))
	}
	st.us = append(st.us, float64(d)/float64(time.Microsecond))
	st.overhead += time.Since(enter) - d
	return pl
}

// cloneInput deep-copies a placer input: the runner recycles its Input and
// curve buffers across epochs.
func cloneInput(in *core.Input) *core.Input {
	c := &core.Input{Machine: in.Machine, Apps: make([]core.AppSpec, len(in.Apps)),
		LatSizes: make(map[core.AppID]float64, len(in.LatSizes))}
	for i, a := range in.Apps {
		a.MissRatio = mrc.Curve{Unit: a.MissRatio.Unit, M: append([]float64(nil), a.MissRatio.M...)}
		c.Apps[i] = a
	}
	for k, v := range in.LatSizes {
		c.LatSizes[k] = v
	}
	return c
}

// redriveResult is the per-design cost of one re-driven protocol.
type redriveResult struct {
	runMS, selfMS [][]float64 // per design, per system.Run
	place         []*placeStats
	speedup       float64 // as the figure aggregates it
	worstTail     float64 // worst Jumanji normalized tail
	samples       []*core.Input
}

// redrive runs every cell of the protocol through system.Run with each
// placer wrapped in a timedPlacer, serially, like the figure's one worker.
func redrive(p *protocol) *redriveResult {
	n := len(p.placers)
	rd := &redriveResult{runMS: make([][]float64, n), selfMS: make([][]float64, n), place: make([]*placeStats, n)}
	for i := range rd.place {
		rd.place[i] = &placeStats{}
	}
	rowSpeedups := make([][]float64, p.rows)
	for _, c := range p.cells {
		results := make([]*system.RunResult, n)
		for i, pl := range p.placers {
			st := rd.place[i]
			st.inRun, st.overhead = 0, 0
			t0 := time.Now()
			results[i] = system.Run(c.cfg, c.wl, timedPlacer{inner: pl, st: st}, p.epochs, p.warmup)
			d := time.Since(t0) - st.overhead // the run as it is without the wrapper
			rd.runMS[i] = append(rd.runMS[i], float64(d)/float64(time.Millisecond))
			rd.selfMS[i] = append(rd.selfMS[i], float64(d-st.inRun)/float64(time.Millisecond))
		}
		jum := results[n-1]
		rowSpeedups[c.row] = append(rowSpeedups[c.row], jum.BatchWeightedSpeedup/results[0].BatchWeightedSpeedup)
		rd.worstTail = math.Max(rd.worstTail, jum.WorstNormTail)
	}
	per := make([]float64, p.rows)
	for r, s := range rowSpeedups {
		per[r] = p.rowSpeedup(s)
	}
	rd.speedup, _ = gmeanSpeedup(per)
	for _, st := range rd.place {
		rd.samples = append(rd.samples, st.samples...)
	}
	return rd
}

// report sets the system and core per-layer metrics.
func (rd *redriveResult) report(b *bench) {
	var run, self float64
	calls := 0
	for i, slug := range designSlugs {
		b.set("system.run_ms."+slug, median(rd.runMS[i]))
		b.set("system.model_self_ms."+slug, median(rd.selfMS[i]))
		for j := range rd.runMS[i] {
			run += rd.runMS[i][j]
			self += rd.selfMS[i][j]
		}
		st := rd.place[i]
		calls += len(st.us)
		b.set("core.place_us."+slug, median(st.us))
		b.set("core.place_allocs_per_call."+slug, float64(st.allocs)/float64(len(st.us)))
	}
	b.set("system.model_share", self/run)
	b.set("core.place_calls", float64(calls))
	b.set("sim.jumanji_tail", rd.worstTail)
}

// replayMin is the least time each replayed operation is repeated for.
const replayMin = 100 * time.Millisecond

// timePerCall repeats pass (which performs calls operations) until replayMin
// has elapsed and returns the median over passes of µs per operation.
func timePerCall(calls int, pass func()) float64 {
	if calls == 0 {
		return 0
	}
	var per []float64
	for start := time.Now(); time.Since(start) < replayMin || len(per) < 3; {
		t := time.Now()
		pass()
		per = append(per, float64(time.Since(t))/float64(time.Microsecond)/float64(calls))
	}
	return median(per)
}

// replayLayers replays the mrc, lookahead, and tailbench layers on the
// placer inputs sampled during the re-drive and on the protocol's
// latency-critical apps, so their costs reflect the workload's real curve
// sizes and request rates.
func replayLayers(b *bench, p *protocol, samples []*core.Input) {
	var (
		curves []mrc.Curve   // every app's miss-rate curve
		groups [][]mrc.Curve // each VM's batch hulls, as the placers combine them
		totals []float64     // per sample: LLC bytes
		reqs   [][]lookahead.Request
	)
	for _, in := range samples {
		byVM := map[core.VMID][]mrc.Curve{}
		var vms []core.VMID
		var rs []lookahead.Request
		for _, a := range in.Apps {
			c := a.MissRatio.Scale(a.AccessRate)
			curves = append(curves, c)
			h := c.ConvexHull()
			rs = append(rs, lookahead.Request{Curve: h})
			if !a.LatencyCritical {
				if _, ok := byVM[a.VM]; !ok {
					vms = append(vms, a.VM)
				}
				byVM[a.VM] = append(byVM[a.VM], h)
			}
		}
		for _, vm := range vms {
			groups = append(groups, byVM[vm])
		}
		totals = append(totals, in.Machine.TotalBytes())
		reqs = append(reqs, rs)
	}
	if len(curves) > 0 {
		hullDst := map[int][]float64{} // by curve length
		points := 0
		for _, c := range curves {
			hullDst[len(c.M)] = make([]float64, len(c.M))
			points = max(points, len(c.M))
		}
		b.set("mrc.curve_points", float64(points))
		b.set("mrc.hull_us", timePerCall(len(curves), func() {
			for _, c := range curves {
				c.ConvexHullInto(hullDst[len(c.M)])
			}
		}))
		var dsts [][]float64
		for _, g := range groups {
			n := 1
			for _, c := range g {
				n += len(c.M) - 1
			}
			dsts = append(dsts, make([]float64, n))
		}
		b.set("mrc.combine_us", timePerCall(len(groups), func() {
			for i, g := range groups {
				mrc.CombineInto(dsts[i], g...)
			}
		}))
		var dst []float64
		b.set("lookahead.allocate_us", timePerCall(len(reqs), func() {
			for i, rs := range reqs {
				dst = lookahead.AllocateInto(dst, totals[i], rs)
			}
		}))
	}

	// tailbench: every latency-critical app of the first cells, each with
	// its own queue run for the protocol's epochs at its configured load
	// and the reference service time (50% utilization at high load).
	const maxQueues = 16
	var qs []*tailbench.QueueSim
	var service []float64
	cfg := system.DefaultConfig()
	for _, c := range p.cells {
		for _, a := range c.wl.Apps {
			if a.LatCrit == nil || len(qs) == maxQueues {
				continue
			}
			qps := a.LatCrit.LowQPS
			if a.HighLoad {
				qps = a.LatCrit.HighQPS
			}
			q := tailbench.NewQueueSim(int64(len(qs)) + 1)
			q.SetRate(qps / cfg.FreqHz)
			qs = append(qs, q)
			service = append(service, 0.5/a.LatCrit.HighQPS*cfg.FreqHz)
		}
	}
	var lats []float64
	var epochUS []float64
	requests := 0
	for e := 0; e < p.epochs; e++ {
		for i, q := range qs {
			t := time.Now()
			lats = q.RunEpochAppend(lats[:0], cfg.EpochCycles(), service[i])
			epochUS = append(epochUS, float64(time.Since(t))/float64(time.Microsecond))
			requests += len(lats)
		}
	}
	if len(epochUS) > 0 {
		b.set("tailbench.requests_per_epoch", float64(requests)/float64(len(epochUS)))
		b.set("tailbench.epoch_us", median(epochUS))
	}
}
