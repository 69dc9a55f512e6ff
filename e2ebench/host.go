package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// hostShape describes the machine and settings a result was measured under.
// The benchmark records it with every run and measures on any host shape:
// results from different shapes are reported, never skipped.
func hostShape(seed int64, workers, clients int) []string {
	return []string{
		"host.cpu_model " + cpuModel(),
		fmt.Sprintf("host.nproc %d", runtime.NumCPU()),
		fmt.Sprintf("host.gomaxprocs %d", runtime.GOMAXPROCS(0)),
		"host.go_version " + runtime.Version(),
		fmt.Sprintf("run.workers %d", workers),
		fmt.Sprintf("run.clients %d", clients),
		fmt.Sprintf("run.seed %d", seed),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuSeconds is the user+system CPU time of this process and of its
// waited-for children (cmd/report).
func cpuSeconds() float64 {
	total := 0.0
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if syscall.Getrusage(who, &ru) == nil {
			total += tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
		}
	}
	return total
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSMB is this process's maximum resident set size so far, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports kilobytes
}
