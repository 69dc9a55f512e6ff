// Package benchdiff compares `go test -bench` results against the
// repository's committed baseline files (BENCH_dense.json,
// BENCH_parallel.json) so the performance wins those files record are
// guarded by CI instead of silently eroding. It parses the standard
// benchmark output format, matches benchmarks by name against the
// baseline's results, and flags any ns/op or allocs/op value that exceeds
// the baseline: ns/op by more than a configurable tolerance, allocs/op by
// more than 1%.
package benchdiff

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Metrics is one benchmark's measured values. Fields are pointers because
// the baselines record different subsets: BENCH_dense.json entries carry
// all three, BENCH_parallel.json entries only ns_per_op — absent metrics
// are simply not compared.
type Metrics struct {
	NsPerOp     *float64 `json:"ns_per_op,omitempty"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
}

// Baseline is one committed BENCH_*.json file.
type Baseline struct {
	Path    string
	Results map[string]Metrics
	// HostCores is the core count the baseline was recorded on (host.cores
	// in the file; 0 when unrecorded). cmd/benchdiff runs the benchmarks
	// with -cpu HostCores, so every host measures the recorded shape.
	HostCores int
	// HostCPU is the CPU model the baseline was recorded on (host.cpu, as
	// `go test` prints it on its "cpu:" line). Timings transfer only to the
	// same model, so cmd/benchdiff gates ns/op only when they match.
	HostCPU string
}

// baselineFile mirrors the committed schema: results keyed by benchmark
// name, each a Metrics object.
type baselineFile struct {
	Host struct {
		Cores int    `json:"cores"`
		CPU   string `json:"cpu"`
	} `json:"host"`
	Results map[string]json.RawMessage `json:"results"`
}

// LoadBaseline reads a BENCH_*.json file.
func LoadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f baselineFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("benchdiff: %s: %w", path, err)
	}
	if len(f.Results) == 0 {
		return nil, fmt.Errorf("benchdiff: %s has no results", path)
	}
	b := &Baseline{Path: path, Results: make(map[string]Metrics, len(f.Results)), HostCores: f.Host.Cores, HostCPU: f.Host.CPU}
	for name, raw := range f.Results {
		// Strict: an entry in some other shape must fail, not load as a
		// benchmark with no metrics to compare.
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		var m Metrics
		if err := dec.Decode(&m); err != nil {
			return nil, fmt.Errorf("benchdiff: %s: result %q: %w", path, name, err)
		}
		b.Results[name] = m
	}
	return b, nil
}

// BenchRegexp returns the `go test -bench` pattern selecting exactly the
// baseline's benchmarks. Sub-benchmark names ("BenchmarkX/serial") anchor
// on their first path element, which is what -bench matches per element.
func (b *Baseline) BenchRegexp() string {
	seen := make(map[string]bool)
	var names []string
	for name := range b.Results {
		root, _, _ := strings.Cut(name, "/")
		if !seen[root] {
			seen[root] = true
			names = append(names, regexp.QuoteMeta(root))
		}
	}
	sort.Strings(names)
	return "^(" + strings.Join(names, "|") + ")$"
}

// benchLine matches one result line of `go test -bench` output:
//
//	BenchmarkEpochLoop-4   38   28944947 ns/op   34442492 B/op   11953 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S*?)(?:-\d+)?\s+\d+\s+(.*)$`)

// ParseBenchOutput extracts per-benchmark metrics from `go test -bench`
// output. The GOMAXPROCS suffix ("-4") is stripped so names match the
// baselines regardless of host. Repeated runs of one benchmark (-count=N)
// keep the minimum per metric: the minimum estimates the true cost floor,
// so scheduler noise on a loaded host inflates neither side of the gate.
func ParseBenchOutput(r io.Reader) (map[string]Metrics, error) {
	out := make(map[string]Metrics)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		name, rest := m[1], strings.Fields(m[2])
		got := out[name]
		keepMin := func(dst **float64, v float64) {
			if *dst == nil || v < **dst {
				*dst = &v
			}
		}
		// rest is value/unit pairs: "28944947 ns/op 34442492 B/op ...".
		for i := 0; i+1 < len(rest); i += 2 {
			v, err := strconv.ParseFloat(rest[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchdiff: bad value %q for %s", rest[i], name)
			}
			switch rest[i+1] {
			case "ns/op":
				keepMin(&got.NsPerOp, v)
			case "B/op":
				keepMin(&got.BytesPerOp, v)
			case "allocs/op":
				keepMin(&got.AllocsPerOp, v)
			}
		}
		out[name] = got
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// ParseCPU returns the CPU model from the first "cpu:" line of `go test
// -bench` output, or "" when there is none.
func ParseCPU(benchOut []byte) string {
	for _, line := range strings.Split(string(benchOut), "\n") {
		if cpu, ok := strings.CutPrefix(strings.TrimSpace(line), "cpu:"); ok {
			return strings.TrimSpace(cpu)
		}
	}
	return ""
}

// Delta is one compared metric.
type Delta struct {
	Bench  string  // benchmark name
	Metric string  // "ns/op" or "allocs/op"
	Base   float64 // baseline value
	Got    float64 // measured value
	// Ratio is Got/Base (+Inf when Base is 0 and Got is not).
	Ratio float64
	// Regressed marks Got exceeding Base by more than the tolerance.
	Regressed bool
}

func (d Delta) String() string {
	status := "ok"
	if d.Regressed {
		status = "REGRESSED"
	}
	return fmt.Sprintf("%-45s %-10s base %14.6g  got %14.6g  (%.2fx)  %s",
		d.Bench, d.Metric, d.Base, d.Got, d.Ratio, status)
}

// allocSlack is the fractional allocs/op excess Compare tolerates. Counts
// are deterministic up to the odd pool refill after a GC (±1-3 on a
// 500-4000 allocs/op benchmark); 1% absorbs that but still flags one extra
// allocation per op on any benchmark under 100 allocs/op.
const allocSlack = 0.01

// Compare checks every measured benchmark that appears in the baseline,
// comparing ns/op and allocs/op (the gate metrics; B/op is informational in
// the baselines and skipped). ns/op regresses when got > base×(1+tol);
// allocs/op, deterministic at a fixed -cpu, gets only allocSlack, and a
// zero-alloc baseline's 0→1 is an infinite ratio. Deltas come back sorted
// by benchmark then metric. Improvements are never flagged.
func Compare(base *Baseline, got map[string]Metrics, tol float64) []Delta {
	var out []Delta
	add := func(bench, metric string, b, g *float64, tol float64) {
		if b == nil || g == nil {
			return
		}
		d := Delta{Bench: bench, Metric: metric, Base: *b, Got: *g}
		switch {
		case d.Base == 0:
			if d.Got > 0 {
				d.Ratio = math.Inf(1)
				d.Regressed = true
			} else {
				d.Ratio = 1
			}
		default:
			d.Ratio = d.Got / d.Base
			d.Regressed = d.Got > d.Base*(1+tol)
		}
		out = append(out, d)
	}
	for bench, bm := range base.Results {
		gm, ok := got[bench]
		if !ok {
			continue
		}
		add(bench, "ns/op", bm.NsPerOp, gm.NsPerOp, tol)
		add(bench, "allocs/op", bm.AllocsPerOp, gm.AllocsPerOp, allocSlack)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bench != out[j].Bench {
			return out[i].Bench < out[j].Bench
		}
		return out[i].Metric < out[j].Metric
	})
	return out
}

// Missing lists baseline benchmarks absent from the measured set, sorted —
// a renamed or deleted benchmark silently dropping out of the gate should
// at least be visible in the report.
func Missing(base *Baseline, got map[string]Metrics) []string {
	var out []string
	for name := range base.Results {
		if _, ok := got[name]; !ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Extra lists measured benchmarks with no baseline entry, sorted. A brand-new
// benchmark (or sub-benchmark) is expected to show up here until its baseline
// is recorded; it is informational, never a gate failure.
func Extra(base *Baseline, got map[string]Metrics) []string {
	var out []string
	for name := range got {
		if _, ok := base.Results[name]; !ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
