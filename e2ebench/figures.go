package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"jumanji/internal/core"
	"jumanji/internal/harness"
	"jumanji/internal/obs"
	"jumanji/internal/obs/tsdb"
	"jumanji/internal/stats"
	"jumanji/internal/system"
	"jumanji/internal/topo"
)

// figureWorkers is the harness worker count of the figure workloads. They
// are batch jobs run by one worker: with two workers on a two-core host the
// wall time of one regeneration spreads too widely to compare two commits.
const figureWorkers = 1

// figureWorkload is a batch workload: one harness figure at a fixed
// protocol scale, regenerated and rendered as often as the run allows.
type figureWorkload struct {
	name  string
	fig   int // 13 (the paper's main result) or 19 (big meshes)
	mixes int
	// epochs and warmup, when set, replace the quick protocol's 40 and 15.
	epochs, warmup int
	sinks          bool // all five sinks write to files, then cmd/report renders them
}

var (
	paper5x4 = &figureWorkload{name: "paper-5x4", fig: 13, mixes: 1}
	// fleetMesh runs 12 epochs (4 warm-up): at the quick protocol's 40 one
	// regeneration takes about 8 s on a 2-core host, too long for a run to
	// hold the minUnits regenerations its medians need.
	fleetMesh   = &figureWorkload{name: "fleet-mesh", fig: 19, mixes: 1, epochs: 12, warmup: 4}
	observed5x4 = &figureWorkload{name: "observed-5x4", fig: 13, mixes: 1, sinks: true}
)

func (f *figureWorkload) key(seed int64) string { return fmt.Sprintf("%s/%d", f.name, seed) }

// options is the quick protocol at this workload's mix count (and epochs,
// where it sets them).
func (f *figureWorkload) options(seed int64) harness.Options {
	o := harness.QuickOptions()
	o.Mixes, o.Seed, o.Parallel = f.mixes, seed, figureWorkers
	if f.epochs > 0 {
		o.Epochs, o.Warmup = f.epochs, f.warmup
	}
	return o
}

// unitResult is what one figure regeneration produced and cost.
type unitResult struct {
	out     []byte  // the rendered figure, then (observed-5x4) the report
	speedup float64 // gmean over rows of Jumanji's batch speedup vs Static
	wall    float64 // seconds
	cpu     float64 // seconds, this process plus cmd/report
	allocMB float64
	sinks   sinkCost
}

// sinkCost is the observability write and read path of one regeneration.
type sinkCost struct {
	eventsMB, provMB, tsdbMB, traceMB float64
	closeMS, decodeMS, reportMS       float64
}

// sinkFiles are the five sink outputs and the report, relative to a
// unit's directory.
var sinkFiles = struct{ events, trace, metrics, tsdb, prov, report string }{
	"events.jsonl", "trace.json", "metrics.txt", "tsdb.json", "prov.jsonl", "report.html",
}

func openSinks(dir string) (*obs.CLI, error) {
	cli := &obs.CLI{
		EventsPath:  filepath.Join(dir, sinkFiles.events),
		TracePath:   filepath.Join(dir, sinkFiles.trace),
		MetricsPath: filepath.Join(dir, sinkFiles.metrics),
		TSDBPath:    filepath.Join(dir, sinkFiles.tsdb),
		ProvPath:    filepath.Join(dir, sinkFiles.prov),
	}
	if err := cli.Open(); err != nil {
		cli.Close()
		return nil, err
	}
	return cli, nil
}

// unit regenerates the figure once and measures it: compute, render, and on
// observed-5x4 the sinks' close and the cmd/report render over their files.
// spans, when set, turns on the harness's own phase timers. The read-path
// cost (decoding the sinks' files) is measured after the timed section, in
// a traced run's pass without phase timers only.
func (f *figureWorkload) unit(b *bench, o harness.Options, spans *obs.Spans) (unitResult, error) {
	var u unitResult
	dir, err := os.MkdirTemp(b.work, "unit-")
	if err != nil {
		return u, err
	}
	defer os.RemoveAll(dir)
	var cli *obs.CLI
	if f.sinks {
		if cli, err = openSinks(dir); err != nil {
			return u, err
		}
		o.Metrics, o.Events, o.Trace = cli.Registry(), cli.Events(), cli.Trace()
		o.TS, o.Prov = cli.TS(), cli.Prov()
	}
	o.Spans = spans

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, t0 := cpuSeconds(), time.Now()
	var buf bytes.Buffer
	u.speedup, err = f.render(&buf, o)
	if cli != nil {
		tc := time.Now()
		if cerr := cli.Close(); err == nil {
			err = cerr
		}
		u.sinks.closeMS = msSince(tc)
		if err == nil {
			tr := time.Now()
			var rep []byte
			rep, err = f.renderReport(b, dir)
			u.sinks.reportMS = msSince(tr)
			buf.Write(rep)
		}
	}
	u.wall = time.Since(t0).Seconds()
	u.cpu = cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms1)
	u.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
	u.out = buf.Bytes()
	if err != nil {
		return u, err
	}
	if cli != nil && b.trace && spans == nil {
		err = u.sinks.measureFiles(dir)
	}
	return u, err
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// render computes and renders the figure exactly as harness.Render does,
// keeping the structured result for the simulated metrics.
func (f *figureWorkload) render(w io.Writer, o harness.Options) (speedup float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("figure %d: %v", f.fig, r)
		}
	}()
	var per []float64 // Jumanji's speedup per row
	switch f.fig {
	case 13:
		res := harness.Fig13(o)
		res.Render(w)
		for i, row := range res.Rows {
			if len(row) != len(mainDesigns()) {
				return 0, fmt.Errorf("fig 13 row %d has %d designs", i, len(row))
			}
			for _, d := range row {
				if d.Design == "Jumanji" {
					per = append(per, d.Speedup.Median)
				}
			}
		}
	case 19:
		rows := harness.Fig19(o)
		harness.RenderFig19(w, rows)
		for _, r := range rows {
			if r.Design == "Jumanji" {
				per = append(per, r.Speedup)
			}
		}
	}
	return gmeanSpeedup(per)
}

// gmeanSpeedup is the geometric mean of the per-row speedups, refusing
// rows whose speedup is not a positive finite number.
func gmeanSpeedup(per []float64) (float64, error) {
	if len(per) == 0 {
		return 0, errors.New("no Jumanji rows")
	}
	for _, s := range per {
		if !(s > 0) || math.IsInf(s, 0) {
			return 0, fmt.Errorf("Jumanji speedup %v is not a positive finite number", s)
		}
	}
	return stats.Gmean(per), nil
}

// renderReport runs cmd/report over the sinks' files (relative paths, so
// the report's bytes do not depend on the directory) and returns the HTML.
func (f *figureWorkload) renderReport(b *bench, dir string) ([]byte, error) {
	if b.report == "" {
		return nil, errors.New("observed-5x4 needs -report (the launcher builds cmd/report)")
	}
	cmd := exec.Command(b.report,
		"-events", sinkFiles.events, "-tsdb", sinkFiles.tsdb, "-tracefile", sinkFiles.trace,
		"-provenance", sinkFiles.prov, "-o", sinkFiles.report)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("cmd/report: %v: %s", err, stderr.String())
	}
	return os.ReadFile(filepath.Join(dir, sinkFiles.report))
}

// measureFiles records the sinks' file sizes and times decoding them with
// the public readers (obs.DecodeEvents, tsdb.Read).
func (c *sinkCost) measureFiles(dir string) error {
	size := func(name string) float64 {
		st, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			return 0
		}
		return float64(st.Size()) / 1e6
	}
	c.eventsMB, c.provMB = size(sinkFiles.events), size(sinkFiles.prov)
	c.tsdbMB, c.traceMB = size(sinkFiles.tsdb), size(sinkFiles.trace)
	t := time.Now()
	for _, name := range []string{sinkFiles.events, sinkFiles.prov} {
		fh, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		err = obs.DecodeEvents(fh, func(obs.Event) error { return nil })
		fh.Close()
		if err != nil {
			return fmt.Errorf("decoding %s: %w", name, err)
		}
	}
	fh, err := os.Open(filepath.Join(dir, sinkFiles.tsdb))
	if err != nil {
		return err
	}
	defer fh.Close()
	if _, err := tsdb.Read(fh); err != nil {
		return fmt.Errorf("reading %s: %w", sinkFiles.tsdb, err)
	}
	c.decodeMS = msSince(t)
	return nil
}

// run measures the workload: set-up several times, then regenerations
// until the measuring time is spent (or the traced run).
func (f *figureWorkload) run(b *bench) error {
	if err := b.timeSetup(f.name); err != nil {
		return err
	}
	if b.trace {
		return f.traced(b)
	}

	outs := newOutputs(b.digests.Figures)
	var walls, cpus, allocs []float64
	start := time.Now()
	for !b.timeUp(start, walls) {
		u, err := f.unit(b, f.options(b.seed), nil)
		if err != nil {
			return err
		}
		b.check(outs.verify(f.key(b.seed), u.out))
		fmt.Fprintf(b.log, "%s: regeneration %d: wall %.3fs cpu %.3fs alloc %.1fMB\n", f.name, len(walls)+1, u.wall, u.cpu, u.allocMB)
		if len(walls) == 0 {
			b.set("sim.jumanji_speedup", u.speedup)
		}
		walls, cpus, allocs = append(walls, u.wall), append(cpus, u.cpu), append(allocs, u.allocMB)
	}
	if len(walls) == 0 {
		return errors.New("no regeneration succeeded")
	}
	lat := make([]float64, len(walls))
	for i, w := range walls {
		lat[i] = w * 1000
	}
	b.setUnits(walls, cpus, allocs, lat)
	return nil
}

// cellSeed is the harness's per-cell seed derivation (internal/harness),
// reproduced so the traced run re-drives exactly the figure's cells.
func cellSeed(base int64, label string, cell int) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(base))
	h.Write(b[:])
	io.WriteString(h, label)
	binary.LittleEndian.PutUint64(b[:], uint64(cell))
	h.Write(b[:])
	return int64(h.Sum64())
}

// runCell is one mix of one figure row: the machine, arrival seed, and
// workload every design runs on.
type runCell struct {
	row int
	cfg system.Config
	wl  system.Workload
}

// protocol is a figure's cells and designs, built with the same workload
// builders, meshes, seeds, epochs, and warm-up as the harness uses.
type protocol struct {
	cells          []runCell
	placers        []core.Placer // Static first, Jumanji last
	rows           int
	epochs, warmup int
	// rowSpeedup aggregates a row's per-mix Jumanji speedups the way the
	// figure does: Fig. 13 takes the median, Fig. 19 the geometric mean.
	rowSpeedup func([]float64) float64
}

// mainDesigns are Fig. 13's designs in the harness's order (Static first).
func mainDesigns() []core.Placer {
	return []core.Placer{core.StaticPlacer{}, core.AdaptivePlacer{}, core.VMPartPlacer{},
		core.JigsawPlacer{}, core.JumanjiPlacer{}}
}

// designSlugs name mainDesigns (and Fig. 19's sharded variants) in metrics.
var designSlugs = []string{"static", "adaptive", "vm-part", "jigsaw", "jumanji"}

// protocol builds every input one regeneration runs; it is the workload's
// set-up.
func (f *figureWorkload) protocol(seed int64) (*protocol, error) {
	o := f.options(seed)
	p := &protocol{epochs: o.Epochs, warmup: o.Warmup}
	add := func(label string, cfg system.Config, build func(core.Machine, *rand.Rand) (system.Workload, error)) error {
		for mix := 0; mix < o.Mixes; mix++ {
			wl, err := build(cfg.Machine, rand.New(rand.NewSource(cellSeed(seed, label+"/mix", mix))))
			if err != nil {
				return err
			}
			c := cfg
			c.Seed = cellSeed(seed, label+"/arrivals", mix)
			p.cells = append(p.cells, runCell{row: p.rows, cfg: c, wl: wl})
		}
		p.rows++
		return nil
	}
	switch f.fig {
	case 13:
		p.placers = mainDesigns()
		p.rowSpeedup = func(s []float64) float64 { return stats.Summarize(s).Median }
		for _, high := range []bool{true, false} {
			load := "low"
			if high {
				load = "high"
			}
			for _, lc := range harness.LCNames() {
				lc := lc
				if err := add("case/"+lc+"/"+load, system.DefaultConfig(), func(m core.Machine, rng *rand.Rand) (system.Workload, error) {
					return system.CaseStudyWorkload(m, lc, rng, high)
				}); err != nil {
					return nil, err
				}
			}
			if err := add("mixed/"+load, system.DefaultConfig(), func(m core.Machine, rng *rand.Rand) (system.Workload, error) {
				return system.MixedLCWorkload(m, rng, high)
			}); err != nil {
				return nil, err
			}
		}
	case 19:
		p.placers = []core.Placer{core.StaticPlacer{}, core.AdaptivePlacer{}, core.VMPartPlacer{},
			core.ShardedPlacer{Inner: core.JigsawPlacer{}}, core.ShardedPlacer{Inner: core.JumanjiPlacer{}}}
		p.rowSpeedup = stats.Gmean
		for _, n := range []int{6, 8, 12, 16} {
			cfg := system.DefaultConfig()
			cfg.Machine.Mesh = topo.NewMesh(n, n)
			if err := add(fmt.Sprintf("datacenter/%dx%d/high", n, n), cfg, func(m core.Machine, rng *rand.Rand) (system.Workload, error) {
				return system.DatacenterWorkload(m, rng, true)
			}); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("no protocol for figure %d", f.fig)
	}
	return p, nil
}

// traced is the per-layer run: an untraced regeneration (the base of
// trace_overhead_frac and, on observed-5x4, the sinks' costs), one with the
// harness's phase timers on, a re-drive of the protocol with timing
// placers, and replays of the mrc, lookahead, and tailbench layers.
func (f *figureWorkload) traced(b *bench) error {
	outs := newOutputs(b.digests.Figures)
	a, err := f.unit(b, f.options(b.seed), nil)
	if err != nil {
		return err
	}
	b.check(outs.verify(f.key(b.seed), a.out))

	spans := obs.NewSpans()
	spans.EnableTrace()
	s, err := f.unit(b, f.options(b.seed), spans)
	if err != nil {
		return err
	}
	b.check(outs.verify(f.key(b.seed), s.out))
	b.set("trace_overhead_frac", s.wall/a.wall-1)
	cells, err := spanDurationsMS(spans, "harness.cell")
	if err != nil {
		return err
	}
	// The share of the regeneration that neither the epoch-model nor the
	// placement span covers (harness, workload building, render, sinks),
	// from the same pass, so host drift between passes cannot skew it.
	covered := 0.0
	for _, snap := range spans.Snapshot() {
		if snap.Name == "span.system.epoch_model.seconds" || snap.Name == "span.core.place.seconds" {
			covered += snap.Sum
		}
	}
	b.set("harness.unattributed_frac", 1-covered/s.wall)
	b.set("harness.cells", float64(len(cells)))
	b.set("harness.cell_ms.p50", median(cells))
	b.set("harness.cell_ms.max", percentile(cells, 100))

	p, err := f.protocol(b.seed)
	if err != nil {
		return err
	}
	rd := redrive(p)
	problem := ""
	if rd.speedup != a.speedup {
		problem = fmt.Sprintf("re-driven protocol gives Jumanji speedup %v, the figure %v", rd.speedup, a.speedup)
	}
	b.check(problem)
	rd.report(b)
	replayLayers(b, p, rd.samples)

	if f.sinks {
		c := a.sinks
		b.set("obs.events_mb", c.eventsMB)
		b.set("obs.prov_mb", c.provMB)
		b.set("obs.tsdb_mb", c.tsdbMB)
		b.set("obs.trace_mb", c.traceMB)
		b.set("obs.close_ms", c.closeMS)
		b.set("obs.decode_ms", c.decodeMS)
		b.set("report.render_ms", c.reportMS)
	}
	return nil
}

// spanDurationsMS returns every recorded span of one phase, in ms, by
// exporting the spans as a Chrome trace (obs.Spans.WriteTrace).
func spanDurationsMS(spans *obs.Spans, phase string) ([]float64, error) {
	var buf bytes.Buffer
	tr := obs.NewTrace(&buf)
	spans.WriteTrace(tr)
	if err := tr.Close(); err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, err
	}
	var out []float64
	for _, e := range doc.TraceEvents {
		if e.Name == phase && e.Ph == "X" {
			out = append(out, e.Dur/1000)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no %s spans recorded", phase)
	}
	return out, nil
}
