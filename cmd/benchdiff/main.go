// Command benchdiff guards the repository's benchmark baselines: it runs
// the baseline's benchmarks via `go test -bench -cpu <host.cores>`, compares
// the measured ns/op and allocs/op against the committed BENCH_*.json
// values, and exits nonzero when any gated metric regresses. allocs/op
// always gates, with 1% slack. ns/op gates past -tolerance only
// when `go test`'s "cpu:" line matches the baseline's host.cpu, and is
// reported otherwise.
//
// Examples:
//
//	benchdiff                                # gate on BENCH_dense.json, ±25%
//	benchdiff -baseline BENCH_parallel.json -tolerance 0.5
//	go test -bench . ./... | tee out.txt; benchdiff -input out.txt
//
// Exit status: 0 when every gated metric is within bounds, 1 on
// regression, 2 on usage or execution errors.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"

	"jumanji/internal/benchdiff"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		baseline  = fs.String("baseline", "BENCH_dense.json", "committed baseline file to compare against")
		tolerance = fs.Float64("tolerance", 0.25, "allowed fractional ns/op slowdown before it counts as regressed (allocs/op allow 1%)")
		input     = fs.String("input", "", "parse pre-recorded `go test -bench` output from this file instead of running benchmarks")
		benchtime = fs.String("benchtime", "", "-benchtime passed through to `go test` (default: go's 1s)")
		count     = fs.Int("count", 3, "-count passed through to `go test`; benchdiff keeps each metric's minimum across runs to shed scheduler noise")
		pkg       = fs.String("pkg", "./...", "package pattern benchmarks are run in")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *tolerance < 0 {
		fmt.Fprintln(stderr, "benchdiff: -tolerance must be >= 0")
		return 2
	}

	base, err := benchdiff.LoadBaseline(*baseline)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	var benchOut []byte
	if *input != "" {
		if benchOut, err = os.ReadFile(*input); err != nil {
			fmt.Fprintln(stderr, "benchdiff:", err)
			return 2
		}
	} else {
		cmdArgs := goTestArgs(base, *count, *benchtime, *pkg)
		fmt.Fprintf(stderr, "benchdiff: go %s\n", strings.Join(cmdArgs, " "))
		cmd := exec.Command("go", cmdArgs...)
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintln(stderr, "benchdiff: go test:", err)
			return 2
		}
		benchOut = out.Bytes()
	}

	got, err := benchdiff.ParseBenchOutput(bytes.NewReader(benchOut))
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	if len(got) == 0 {
		fmt.Fprintln(stderr, "benchdiff: no benchmark results in input")
		return 2
	}
	// allocs/op is deterministic at a fixed -cpu and always gates. Timings
	// transfer only between identical CPU models, so elsewhere ns/op is
	// reported but not gated.
	cpu := benchdiff.ParseCPU(benchOut)
	gateNs := cpu == base.HostCPU
	if !gateNs {
		fmt.Fprintf(stdout, "benchdiff: ns/op reported, not gated: baseline recorded on %q, this host is %q\n",
			base.HostCPU, cpu)
	}

	deltas := benchdiff.Compare(base, got, *tolerance)
	extra := benchdiff.Extra(base, got)
	if len(deltas) == 0 && len(extra) == 0 {
		fmt.Fprintf(stderr, "benchdiff: no overlap between %s and the measured benchmarks\n", base.Path)
		return 2
	}
	fmt.Fprintf(stdout, "benchdiff: %s vs measured (tolerance %.0f%%)\n", base.Path, *tolerance*100)
	regressions := 0
	for _, d := range deltas {
		note := ""
		if d.Metric == "ns/op" && !gateNs {
			d.Regressed, note = false, " (not gated)"
		}
		if d.Regressed {
			regressions++
		}
		fmt.Fprintln(stdout, " ", d.String()+note)
	}
	for _, name := range benchdiff.Missing(base, got) {
		fmt.Fprintf(stdout, "  %-45s %-10s (in baseline, not measured)\n", name, "-")
	}
	// New benchmarks are reported, not gated: a measurement with no base
	// entry has nothing to regress against until its baseline is recorded.
	for _, name := range extra {
		fmt.Fprintf(stdout, "  %-45s %-10s (missing in baseline)\n", name, "-")
	}
	if regressions > 0 {
		fmt.Fprintf(stdout, "benchdiff: %d metric(s) regressed\n", regressions)
		return 1
	}
	fmt.Fprintln(stdout, "benchdiff: ok")
	return 0
}

// goTestArgs builds the `go test` command line for the baseline's
// benchmarks, pinned to the core count they were recorded on.
func goTestArgs(base *benchdiff.Baseline, count int, benchtime, pkg string) []string {
	args := []string{"test", "-run", "^$", "-bench", base.BenchRegexp(), "-benchmem", fmt.Sprintf("-count=%d", count)}
	if base.HostCores > 0 {
		args = append(args, "-cpu", strconv.Itoa(base.HostCores))
	}
	if benchtime != "" {
		args = append(args, "-benchtime", benchtime)
	}
	return append(args, pkg)
}
