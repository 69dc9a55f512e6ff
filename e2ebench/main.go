// Command e2ebench is the repository's end-to-end benchmark. It measures the
// two ways the paper's evaluation sweep is run — a figure regenerated in
// process (harness.FigNN, as cmd/figures does) and the same kind of
// experiment sent to an in-process jumanji-serve — and checks that every
// output it measured is correct.
//
// Run it from the root of a checkout through the launcher, which builds it
// and cmd/report into .bench_build/:
//
//	bash e2ebench/run.sh --workload paper-5x4 --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of BENCHMARK.json, with
// --trace 1 the per-layer metrics of a separate traced run. The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": 5, "failed": 0, "metrics": {...}}
//
// Output correctness: every figure rendering and every serve result body is
// hashed and compared with the reference digests in e2ebench/digests.json
// (recorded for a default and a held-out seed) and with every other output
// of the same run. --record rewrites that file. Exit status: 0 when every
// output was correct, 1 otherwise, 2 on usage errors.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// workload is one benchmark workload: a function that measures it into b,
// and the worker and client counts it runs with.
type workload struct {
	name             string
	run              func(b *bench) error
	workers, clients int
}

func workloads() []workload {
	return []workload{
		{"paper-5x4", paper5x4.run, figureWorkers, 1},
		{"fleet-mesh", fleetMesh.run, figureWorkers, 1},
		{"observed-5x4", observed5x4.run, figureWorkers, 1},
		{"serve-mix", runServeMix, serveWorkers, serveClients},
	}
}

// metricDef is one metric declared in BENCHMARK.json.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkFile is the part of BENCHMARK.json the benchmark reads: the
// metric names it must report and their units.
type benchmarkFile struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// bench is one run's state: its parameters, the metrics measured so far,
// and the correctness accounting.
type bench struct {
	seed    int64
	seconds time.Duration
	trace   bool
	work    string // scratch directory inside the checkout, removed at exit
	report  string // cmd/report binary
	digests *digestBook
	log     io.Writer
	metrics map[string]float64
	ops     tally
}

// set records a metric value.
func (b *bench) set(name string, v float64) { b.metrics[name] = v }

// check records one attempted operation; a non-empty problem fails it.
func (b *bench) check(problem string) {
	b.ops.add(problem == "")
	if problem != "" {
		fmt.Fprintln(b.log, "e2ebench: FAILED:", problem)
	}
}

// setupProbes is how many fresh processes a run starts to time set-up; it
// reports the median.
const setupProbes = 15

// timeSetup times set-up as the program pays it, from process start until
// the first unit of work could begin: it starts a fresh process of this
// binary in probe mode (see probeSetup) setupProbes times, times each from
// the start until the child reports "ready", and records the median as
// setup_s.
func (b *bench) timeSetup(workload string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var xs []float64
	for i := 0; i < setupProbes; i++ {
		d, err := probeOnce(exe, workload, b.seed, b.work)
		if err != nil {
			return fmt.Errorf("set-up probe: %w", err)
		}
		xs = append(xs, d)
	}
	b.set("setup_s", median(xs))
	fmt.Fprintf(b.log, "set-up seconds %s\n", summarize(xs))
	return nil
}

// probeOnce starts one probe process and returns the seconds until it
// reported "ready"; it then closes the child's stdin and waits for it to
// tear its set-up down and exit.
func probeOnce(exe, workload string, seed int64, work string) (float64, error) {
	cmd := exec.Command(exe, "-setup-probe", workload, "-seed", strconv.FormatInt(seed, 10), "-work", work)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return 0, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	t := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, rerr := bufio.NewReader(stdout).ReadString('\n')
	d := time.Since(t).Seconds()
	stdin.Close()
	io.Copy(io.Discard, stdout) //nolint:errcheck // drains until the child exits
	if err := cmd.Wait(); err != nil {
		return 0, fmt.Errorf("%v: %s", err, stderr.String())
	}
	if rerr != nil || line != "ready\n" {
		return 0, fmt.Errorf("child said %q (%v): %s", line, rerr, stderr.String())
	}
	return d, nil
}

// probeSetup is the child side of timeSetup: it does what the workload does
// before its first unit of work — on a figure workload build the harness
// options and (observed-5x4) open the five sinks, on serve-mix start
// jumanji-serve until /healthz answers ok — prints "ready", and tears the
// set-up down once stdin closes.
func probeSetup(workload string, seed int64, work string, stdin io.Reader, stdout io.Writer) error {
	var teardown func() error
	switch workload {
	case "serve-mix":
		d, err := startDaemon(work)
		if err != nil {
			return err
		}
		teardown = func() error { defer os.RemoveAll(d.dir); return d.stop() }
	default:
		var f *figureWorkload
		for _, fw := range []*figureWorkload{paper5x4, fleetMesh, observed5x4} {
			if fw.name == workload {
				f = fw
			}
		}
		if f == nil {
			return fmt.Errorf("no workload %q", workload)
		}
		_ = f.options(seed)
		teardown = func() error { return nil }
		if f.sinks {
			dir, err := os.MkdirTemp(work, "probe-")
			if err != nil {
				return err
			}
			cli, err := openSinks(dir)
			if err != nil {
				os.RemoveAll(dir)
				return err
			}
			teardown = func() error { defer os.RemoveAll(dir); return cli.Close() }
		}
	}
	fmt.Fprintln(stdout, "ready")
	_, err := io.Copy(io.Discard, stdin)
	if terr := teardown(); err == nil {
		err = terr
	}
	return err
}

// minUnits is the fewest units (figure regenerations or serve rounds) a run
// measures, whatever --seconds says, so every median has samples to hold.
const minUnits = 5

// timeUp reports whether the measuring time is spent: at least minUnits
// units are done, and the next unit, at the median length of those so far,
// would end more than half a unit late.
func (b *bench) timeUp(start time.Time, walls []float64) bool {
	return len(walls) >= minUnits && time.Since(start).Seconds()+median(walls)/2 >= b.seconds.Seconds()
}

// setUnits sets the end-to-end metrics every workload shares from its
// measured units (figure regenerations or serve rounds): medians of their
// wall, CPU and allocation, and the experiments' latencies (ms) and rate
// over the units' total wall time.
func (b *bench) setUnits(walls, cpus, allocs, latMS []float64) {
	total := 0.0
	for _, w := range walls {
		total += w
	}
	t := summarize(latMS)
	fmt.Fprintf(b.log, "%d units, %d experiments, latency ms %s\n", len(walls), len(latMS), t)
	b.set("wall_s", median(walls))
	b.set("cpu_s", median(cpus))
	b.set("alloc_mb", median(allocs))
	b.set("peak_rss_mb", peakRSSMB())
	b.set("exp_latency_ms.p50", t.P50)
	// Every workload must report p90, but only serve-mix has ten samples
	// beyond it; on the figure workloads the logged summary names the
	// highest percentile their few regenerations support.
	b.set("exp_latency_ms.p90", percentile(latMS, 90))
	b.set("exps_per_s", float64(len(latMS))/total)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: paper-5x4, fleet-mesh, observed-5x4, serve-mix")
		seed    = fs.Int64("seed", defaultSeed, "seed the workload's inputs derive from")
		seconds = fs.Int("seconds", 25, "how long to measure, in seconds")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		report  = fs.String("report", "", "cmd/report binary (observed-5x4 renders its sinks with it)")
		record  = fs.Bool("record", false, "recompute the reference digests for the default and held-out seeds into e2ebench/digests.json, then exit")
		probe   = fs.String("setup-probe", "", "internal: set up the named workload, print ready, tear down at stdin EOF (see timeSetup)")
		work    = fs.String("work", "", "internal: scratch directory of -setup-probe")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *probe != "" {
		if err := probeSetup(*probe, *seed, *work, os.Stdin, stdout); err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
		return 0
	}
	if *report != "" {
		// cmd/report runs from a scratch directory.
		abs, err := filepath.Abs(*report)
		if err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 2
		}
		*report = abs
	}
	if *record {
		if err := recordDigests(*report, stderr); err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
		return 0
	}
	var wl *workload
	for _, w := range workloads() {
		if w.name == *name {
			w := w
			wl = &w
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: need --workload (one of paper-5x4, fleet-mesh, observed-5x4, serve-mix), --seconds >= 1, --trace 0|1\n")
		return 2
	}
	line, err := measure(*wl, *seed, *seconds, *trace == 1, *report, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	enc, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(enc))
	if !line.Correct {
		return 1
	}
	return 0
}

// measure runs one workload and builds the result line.
func measure(wl workload, seed int64, seconds int, trace bool, report string, stdout, stderr io.Writer) (*resultLine, error) {
	defs, err := loadBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	book, err := loadDigests(digestsPath)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	b := &bench{
		seed: seed, seconds: time.Duration(seconds) * time.Second, trace: trace,
		work: work, report: report, digests: book, log: stderr,
		metrics: map[string]float64{},
	}
	for _, l := range hostShape(seed, wl.workers, wl.clients) {
		fmt.Fprintln(stdout, l)
	}
	if err := wl.run(b); err != nil {
		return nil, fmt.Errorf("%s: %w", wl.name, err)
	}

	want := defs.EndToEnd
	if trace {
		want = defs.PerLayer
	}
	line := &resultLine{Metrics: map[string]metricValue{}}
	known := map[string]bool{}
	for _, d := range want {
		known[d.Name] = true
		v, ok := b.metrics[d.Name]
		if !ok {
			if !trace {
				return nil, fmt.Errorf("%s reported no %s", wl.name, d.Name)
			}
			v = 0 // the layer does not run on this workload
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			b.check(fmt.Sprintf("metric %s is %v", d.Name, v))
			v = math.MaxFloat64
		}
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	line.Correct = b.ops.failed == 0 && b.ops.attempted > 0
	line.Attempted, line.Failed = b.ops.attempted, b.ops.failed
	for n := range b.metrics {
		if !known[n] && !isOtherMode(defs, n, trace) {
			return nil, fmt.Errorf("%s measured %s, which BENCHMARK.json does not declare", wl.name, n)
		}
	}
	for _, d := range want {
		fmt.Fprintf(stdout, "metric %-36s %.6g %s\n", d.Name, line.Metrics[d.Name].Value, d.Unit)
	}
	fmt.Fprintf(stdout, "failed_frac %.6g (%d of %d operations failed)\n", b.ops.frac(), b.ops.failed, b.ops.attempted)
	return line, nil
}

// isOtherMode reports whether name is a metric of the mode not being
// printed (a traced run also measures some end-to-end quantities).
func isOtherMode(defs *benchmarkFile, name string, trace bool) bool {
	other := defs.PerLayer
	if trace {
		other = defs.EndToEnd
	}
	for _, d := range other {
		if d.Name == name {
			return true
		}
	}
	return false
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the metric declarations: %w", err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.EndToEnd) == 0 || len(f.PerLayer) == 0 {
		return nil, errors.New(path + " declares no metrics")
	}
	return &f, nil
}
