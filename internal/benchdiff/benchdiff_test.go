package benchdiff

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const denseBaseline = `{
  "recorded": "2026-08-01",
  "results": {
    "BenchmarkEngineSchedule": {"ns_per_op": 17000, "bytes_per_op": 0, "allocs_per_op": 0},
    "BenchmarkEpochLoop": {"ns_per_op": 29000000, "bytes_per_op": 3.4e7, "allocs_per_op": 12000}
  }
}`

const flatBaseline = `{
  "results": {
    "BenchmarkMRCEval": {"ns_per_op": 3.4},
    "BenchmarkFiguresParallel/serial": {"ns_per_op": 4.1e9}
  }
}`

func writeBaseline(t *testing.T, body string) *Baseline {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestLoadBaselineBeforeAfterSchema: the retired {before, after} pair form
// must fail to load rather than load as a benchmark with no metrics, which
// would silently gate nothing.
func TestLoadBaselineBeforeAfterSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pair.json")
	body := `{"results": {"BenchmarkEngineSchedule": {
	  "before": {"ns_per_op": 40000, "bytes_per_op": 100, "allocs_per_op": 3},
	  "after":  {"ns_per_op": 17000, "bytes_per_op": 0,   "allocs_per_op": 0}}}}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBaseline(path); err == nil {
		t.Error("a {before, after} pair entry loaded")
	}
}

func TestLoadBaselineFlatSchema(t *testing.T) {
	b := writeBaseline(t, flatBaseline)
	m, ok := b.Results["BenchmarkMRCEval"]
	if !ok {
		t.Fatal("BenchmarkMRCEval missing")
	}
	if m.NsPerOp == nil || *m.NsPerOp != 3.4 {
		t.Errorf("ns_per_op = %v, want 3.4", m.NsPerOp)
	}
	if m.AllocsPerOp != nil {
		t.Errorf("allocs_per_op = %v, want absent", *m.AllocsPerOp)
	}
}

func TestLoadBaselineCommittedFiles(t *testing.T) {
	for _, name := range []string{"BENCH_dense.json", "BENCH_parallel.json"} {
		b, err := LoadBaseline(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(b.Results) == 0 {
			t.Fatalf("%s: no results", name)
		}
		for bench, m := range b.Results {
			if m.NsPerOp == nil || *m.NsPerOp <= 0 {
				t.Errorf("%s: %s has no positive ns_per_op", name, bench)
			}
		}
	}
}

func TestLoadBaselineErrors(t *testing.T) {
	if _, err := LoadBaseline(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("missing file accepted")
	}
	path := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(path, []byte(`{"notes": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBaseline(path); err == nil {
		t.Error("baseline without results accepted")
	}
}

func TestBenchRegexp(t *testing.T) {
	b := writeBaseline(t, flatBaseline)
	got := b.BenchRegexp()
	want := "^(BenchmarkFiguresParallel|BenchmarkMRCEval)$"
	if got != want {
		t.Errorf("BenchRegexp() = %q, want %q", got, want)
	}
}

const benchOutput = `goos: linux
goarch: amd64
pkg: jumanji/internal/sim
cpu: some host cpu
BenchmarkEngineSchedule-4   	   68719	     17225 ns/op	       0 B/op	       0 allocs/op
BenchmarkEpochLoop-4        	      38	  28944947 ns/op	34442492 B/op	   11953 allocs/op
BenchmarkFiguresParallel/serial-4         	       1	4108041042 ns/op
PASS
ok  	jumanji/internal/sim	3.211s
`

func TestParseBenchOutput(t *testing.T) {
	got, err := ParseBenchOutput(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %v", len(got), got)
	}
	es := got["BenchmarkEngineSchedule"]
	if es.NsPerOp == nil || *es.NsPerOp != 17225 {
		t.Errorf("EngineSchedule ns/op = %v", es.NsPerOp)
	}
	if es.AllocsPerOp == nil || *es.AllocsPerOp != 0 {
		t.Errorf("EngineSchedule allocs/op = %v", es.AllocsPerOp)
	}
	sub := got["BenchmarkFiguresParallel/serial"]
	if sub.NsPerOp == nil || *sub.NsPerOp != 4108041042 {
		t.Errorf("sub-benchmark ns/op = %v", sub.NsPerOp)
	}
	if sub.AllocsPerOp != nil {
		t.Errorf("sub-benchmark allocs/op = %v, want absent", *sub.AllocsPerOp)
	}
}

// TestParseBenchOutputKeepsMinimumAcrossRuns: -count=N repeats a benchmark
// line N times; the parser must keep each metric's minimum so a single
// noisy run cannot trip the gate.
func TestParseBenchOutputKeepsMinimumAcrossRuns(t *testing.T) {
	got, err := ParseBenchOutput(strings.NewReader(
		"BenchmarkEngineSchedule-4 10 25000 ns/op 0 B/op 3 allocs/op\n" +
			"BenchmarkEngineSchedule-4 10 17000 ns/op 0 B/op 5 allocs/op\n" +
			"BenchmarkEngineSchedule-4 10 21000 ns/op 0 B/op 4 allocs/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	m := got["BenchmarkEngineSchedule"]
	if m.NsPerOp == nil || *m.NsPerOp != 17000 {
		t.Errorf("ns/op = %v, want min 17000", m.NsPerOp)
	}
	if m.AllocsPerOp == nil || *m.AllocsPerOp != 3 {
		t.Errorf("allocs/op = %v, want min 3", m.AllocsPerOp)
	}
}

func TestCompareWithinTolerancePasses(t *testing.T) {
	b := writeBaseline(t, denseBaseline)
	got, err := ParseBenchOutput(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	// Measured 17225 vs baseline 17000 and 28944947 vs 29000000: both well
	// inside ±25%.
	deltas := Compare(b, got, 0.25)
	if len(deltas) != 4 {
		t.Fatalf("got %d deltas, want 4: %v", len(deltas), deltas)
	}
	for _, d := range deltas {
		if d.Regressed {
			t.Errorf("unexpected regression: %s", d)
		}
	}
}

// TestCompareDetectsInjectedRegression is the acceptance fixture: doubling
// one benchmark's ns/op in otherwise-passing output must be flagged.
func TestCompareDetectsInjectedRegression(t *testing.T) {
	b := writeBaseline(t, denseBaseline)
	doubled := strings.Replace(benchOutput, "28944947 ns/op", "57889894 ns/op", 1)
	got, err := ParseBenchOutput(strings.NewReader(doubled))
	if err != nil {
		t.Fatal(err)
	}
	deltas := Compare(b, got, 0.25)
	var flagged []Delta
	for _, d := range deltas {
		if d.Regressed {
			flagged = append(flagged, d)
		}
	}
	if len(flagged) != 1 {
		t.Fatalf("flagged %d deltas, want exactly the injected one: %v", len(flagged), flagged)
	}
	d := flagged[0]
	if d.Bench != "BenchmarkEpochLoop" || d.Metric != "ns/op" {
		t.Errorf("flagged %s %s, want BenchmarkEpochLoop ns/op", d.Bench, d.Metric)
	}
	if d.Ratio < 1.9 || d.Ratio > 2.1 {
		t.Errorf("ratio = %.2f, want ~2.0", d.Ratio)
	}
}

func TestCompareZeroAllocBaseline(t *testing.T) {
	b := writeBaseline(t, denseBaseline)
	leaky := strings.Replace(benchOutput,
		"17225 ns/op	       0 B/op	       0 allocs/op",
		"17225 ns/op	      16 B/op	       1 allocs/op", 1)
	got, err := ParseBenchOutput(strings.NewReader(leaky))
	if err != nil {
		t.Fatal(err)
	}
	var flagged *Delta
	for _, d := range Compare(b, got, 0.25) {
		if d.Regressed {
			d := d
			flagged = &d
		}
	}
	if flagged == nil {
		t.Fatal("0 -> 1 allocs/op not flagged")
	}
	if flagged.Bench != "BenchmarkEngineSchedule" || flagged.Metric != "allocs/op" {
		t.Errorf("flagged %s %s", flagged.Bench, flagged.Metric)
	}
	if !math.IsInf(flagged.Ratio, 1) {
		t.Errorf("ratio = %v, want +Inf", flagged.Ratio)
	}
}

// allocs/op is deterministic, so the ns/op tolerance does not apply to it:
// 2% over the baseline regresses at a 25% tolerance.
func TestCompareAllocsIgnoreTolerance(t *testing.T) {
	b := writeBaseline(t, denseBaseline)
	one := strings.Replace(benchOutput, "11953 allocs/op", "12240 allocs/op", 1)
	got, err := ParseBenchOutput(strings.NewReader(one))
	if err != nil {
		t.Fatal(err)
	}
	var flagged []Delta
	for _, d := range Compare(b, got, 0.25) {
		if d.Regressed {
			flagged = append(flagged, d)
		}
	}
	if len(flagged) != 1 || flagged[0].Bench != "BenchmarkEpochLoop" || flagged[0].Metric != "allocs/op" {
		t.Fatalf("flagged %v, want only BenchmarkEpochLoop allocs/op (12240 vs 12000)", flagged)
	}
}

func TestCompareSkipsMetricsAbsentFromBaseline(t *testing.T) {
	b := writeBaseline(t, flatBaseline)
	got, err := ParseBenchOutput(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	deltas := Compare(b, got, 0.25)
	// Only BenchmarkFiguresParallel/serial overlaps, and the baseline has
	// no allocs for it — one ns/op delta, nothing else.
	if len(deltas) != 1 || deltas[0].Metric != "ns/op" {
		t.Fatalf("deltas = %v, want one ns/op entry", deltas)
	}
	if deltas[0].Regressed {
		t.Errorf("4108041042 vs 4.1e9 within tolerance but flagged: %s", deltas[0])
	}
}

func TestExtra(t *testing.T) {
	b := writeBaseline(t, denseBaseline)
	got, err := ParseBenchOutput(strings.NewReader(
		"BenchmarkEngineSchedule-4 10 17000 ns/op 0 B/op 0 allocs/op\n" +
			"BenchmarkSweepOverhead/disabled-4 100 2100 ns/op 0 B/op 0 allocs/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	extra := Extra(b, got)
	if len(extra) != 1 || extra[0] != "BenchmarkSweepOverhead/disabled" {
		t.Errorf("Extra = %v, want [BenchmarkSweepOverhead/disabled]", extra)
	}
}

func TestMissing(t *testing.T) {
	b := writeBaseline(t, denseBaseline)
	got, err := ParseBenchOutput(strings.NewReader(
		"BenchmarkEngineSchedule-4 10 17000 ns/op 0 B/op 0 allocs/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	miss := Missing(b, got)
	if len(miss) != 1 || miss[0] != "BenchmarkEpochLoop" {
		t.Errorf("Missing = %v, want [BenchmarkEpochLoop]", miss)
	}
}
