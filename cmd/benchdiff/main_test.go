package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"jumanji/internal/benchdiff"
)

// writeFiles drops a baseline and a pre-recorded bench-output file into a
// temp dir and returns their paths.
func writeFiles(t *testing.T, baseline, benchOut string) (basePath, inputPath string) {
	t.Helper()
	dir := t.TempDir()
	basePath = filepath.Join(dir, "bench.json")
	inputPath = filepath.Join(dir, "out.txt")
	if err := os.WriteFile(basePath, []byte(baseline), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(inputPath, []byte(benchOut), 0o644); err != nil {
		t.Fatal(err)
	}
	return basePath, inputPath
}

const baseline = `{"results": {"BenchmarkKnown": {"ns_per_op": 1000, "allocs_per_op": 0}}}`

func TestRunReportsNewBenchmarkInsteadOfFailing(t *testing.T) {
	base, input := writeFiles(t, baseline,
		"BenchmarkKnown-4 10 990 ns/op 0 B/op 0 allocs/op\n"+
			"BenchmarkBrandNew-4 10 5 ns/op 0 B/op 0 allocs/op\n")
	var stdout, stderr strings.Builder
	rc := run([]string{"-baseline", base, "-input", input}, &stdout, &stderr)
	if rc != 0 {
		t.Fatalf("rc = %d, want 0; stderr: %s", rc, stderr.String())
	}
	if !strings.Contains(stdout.String(), "BenchmarkBrandNew") ||
		!strings.Contains(stdout.String(), "(missing in baseline)") {
		t.Errorf("new benchmark not reported:\n%s", stdout.String())
	}
}

func TestRunOnlyNewBenchmarksStillPasses(t *testing.T) {
	base, input := writeFiles(t, baseline,
		"BenchmarkBrandNew-4 10 5 ns/op 0 B/op 0 allocs/op\n")
	var stdout, stderr strings.Builder
	rc := run([]string{"-baseline", base, "-input", input}, &stdout, &stderr)
	if rc != 0 {
		t.Fatalf("rc = %d, want 0 when only unbaselined benchmarks ran; stderr: %s", rc, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "(missing in baseline)") || !strings.Contains(out, "(in baseline, not measured)") {
		t.Errorf("report should list both sides of the mismatch:\n%s", out)
	}
}

func TestRunEmptyInputFails(t *testing.T) {
	base, input := writeFiles(t, baseline, "PASS\nok pkg 0.1s\n")
	var stdout, stderr strings.Builder
	if rc := run([]string{"-baseline", base, "-input", input}, &stdout, &stderr); rc != 2 {
		t.Fatalf("rc = %d, want 2 for input with no benchmark lines", rc)
	}
}

func TestRunRegressionStillFails(t *testing.T) {
	base, input := writeFiles(t, baseline,
		"BenchmarkKnown-4 10 990 ns/op 16 B/op 1 allocs/op\n"+
			"BenchmarkBrandNew-4 10 5 ns/op 0 B/op 0 allocs/op\n")
	var stdout, stderr strings.Builder
	if rc := run([]string{"-baseline", base, "-input", input}, &stdout, &stderr); rc != 1 {
		t.Fatalf("rc = %d, want 1: the 0->1 allocs/op regression must still gate", rc)
	}
}

// CPU gating: allocs/op gates on any host, but ns/op gates only when the
// measured CPU model matches the baseline's host.cpu; elsewhere a timing
// regression is reported, never failed.
func TestRunGatesNsOnlyOnRecordedCPU(t *testing.T) {
	const base = `{"host": {"cores": 1, "cpu": "Recorded CPU"}, "results": {"BenchmarkKnown": {"ns_per_op": 1000, "allocs_per_op": 0}}}`
	for _, tc := range []struct {
		name, out string
		rc        int
	}{
		{"other cpu, slow", "cpu: Other CPU\nBenchmarkKnown 10 99999999 ns/op 0 allocs/op\n", 0},
		{"other cpu, allocs", "cpu: Other CPU\nBenchmarkKnown 10 990 ns/op 1 allocs/op\n", 1},
		{"recorded cpu, slow", "cpu: Recorded CPU\nBenchmarkKnown 10 99999999 ns/op 0 allocs/op\n", 1},
	} {
		basePath, input := writeFiles(t, base, tc.out)
		var stdout, stderr strings.Builder
		if rc := run([]string{"-baseline", basePath, "-input", input}, &stdout, &stderr); rc != tc.rc {
			t.Errorf("%s: rc = %d, want %d; stdout:\n%s", tc.name, rc, tc.rc, stdout.String())
		}
		if strings.HasPrefix(tc.name, "other") && !strings.Contains(stdout.String(), "not gated") {
			t.Errorf("%s: no note that ns/op is not gated:\n%s", tc.name, stdout.String())
		}
	}
}

// The benchmarks run at the baseline's recorded core count, whatever this
// host has, so allocs/op is measured in the recorded shape.
func TestGoTestArgsPinRecordedCores(t *testing.T) {
	base := &benchdiff.Baseline{HostCores: 1, Results: map[string]benchdiff.Metrics{"BenchmarkKnown": {}}}
	args := strings.Join(goTestArgs(base, 3, "", "./x"), " ")
	if !strings.Contains(args, "-cpu 1 ") || !strings.HasSuffix(args, " ./x") {
		t.Fatalf("go test args %q do not pin -cpu 1", args)
	}
	base.HostCores = 0
	if args := strings.Join(goTestArgs(base, 3, "", "./x"), " "); strings.Contains(args, "-cpu") {
		t.Fatalf("go test args %q pin -cpu without a recorded core count", args)
	}
}

func TestRunComparesWhenHostShapeMatches(t *testing.T) {
	base, input := writeFiles(t,
		fmt.Sprintf(`{"host": {"cores": %d}, "results": {"BenchmarkKnown": {"ns_per_op": 1000}}}`, runtime.GOMAXPROCS(0)),
		"BenchmarkKnown-4 10 99999999 ns/op\n")
	var stdout, stderr strings.Builder
	if rc := run([]string{"-baseline", base, "-input", input}, &stdout, &stderr); rc != 1 {
		t.Fatalf("rc = %d, want 1 (regression must still gate on a matching host); stdout:\n%s", rc, stdout.String())
	}
}
