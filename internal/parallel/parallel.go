// Package parallel is the experiment engine's worker pool. The paper's
// protocol is embarrassingly parallel — 40 random batch mixes × 7 designs ×
// dozens of sweep points — and every cell of that product is an independent
// job: it derives its own RNG seed from its coordinates and writes into its
// own observability sinks, so results are collected by cell index and are
// bit-identical to a serial run regardless of worker count or completion
// order.
//
// The package deliberately exposes only index-addressed fan-out
// (MapRecover), not channels or futures: deterministic merging is the whole
// point, and a result slice indexed by job keeps "merge in cell order"
// trivial for every caller.
package parallel

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count option: n > 0 is used as given, anything
// else (the default 0) means one worker per CPU.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// Failure records one job's recovered panic: the job index, the panic value,
// and the failing goroutine's stack captured at the recovery point. It
// implements error with the "parallel: job %d panicked" wrapping a
// fail-fast sweep re-raises, so failing cells stay identifiable either way.
type Failure struct {
	Index int    // job index that panicked
	Value any    // the recovered panic value
	Stack []byte // stack of the failing goroutine, captured at recovery
}

func (f Failure) Error() string {
	return fmt.Sprintf("parallel: job %d panicked: %v", f.Index, f.Value)
}

// Stopper is a cooperative cancellation flag for a pooled run: once stopped,
// no new jobs are handed out, while in-flight jobs drain normally. It is the
// mechanism behind graceful SIGINT handling — completed cells keep their
// results (and journal records), unstarted cells are reported as skipped. A
// nil *Stopper never stops.
type Stopper struct{ flag atomic.Bool }

// Stop requests that no further jobs start. Safe from any goroutine
// (typically a signal handler); idempotent.
func (s *Stopper) Stop() {
	if s != nil {
		s.flag.Store(true)
	}
}

// Stopped reports whether Stop has been called.
func (s *Stopper) Stopped() bool { return s != nil && s.flag.Load() }

// CombinedError folds one or more failures into the error a fail-fast sweep
// re-raises (sweep.Cells with a nil engine): deterministically the one with
// the lowest job index, with every failing index listed when there are
// several. Sorting by index — never by which worker lost the race — keeps a
// multi-failure sweep's panic reproducible.
func CombinedError(failures []Failure) error {
	if len(failures) == 0 {
		return nil
	}
	sorted := make([]Failure, len(failures))
	copy(sorted, failures)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Index < sorted[j].Index })
	first := sorted[0]
	if len(sorted) == 1 {
		return first
	}
	idx := make([]string, len(sorted))
	for i, f := range sorted {
		idx[i] = fmt.Sprint(f.Index)
	}
	return fmt.Errorf("parallel: job %d panicked: %v (all failing jobs: %s)",
		first.Index, first.Value, strings.Join(idx, ", "))
}

// MapRecover runs job(0..n-1) across `workers` goroutines and returns the
// results indexed by job, so output order is independent of scheduling.
// workers <= 1 (or n <= 1) runs every job inline on the calling goroutine —
// the exact serial path, with no goroutines involved. Jobs are handed out by
// an atomic counter, so long and short jobs share the pool without static
// chunking.
//
// Every panicking job is recovered into a Failure (with its stack) instead
// of aborting the sweep, and the caller decides what a failure means: the
// simulator's convention is that invalid configuration panics, and a sweep
// of hundreds of cells is undebuggable unless the panic names which cell
// blew up (CombinedError). MapRecover returns the results (zero values at
// failed or skipped indices), the failures sorted by job index, and the
// indices of jobs that never started — because stop was triggered, or
// because failFast ended the run after the first failure. failFast=false is
// "keep going": every job runs regardless of how many fail.
func MapRecover[T any](workers, n int, stop *Stopper, failFast bool, job func(int) T) (out []T, failures []Failure, skipped []int) {
	if n <= 0 {
		return nil, nil, nil
	}
	out = make([]T, n)
	workers = Workers(workers)
	if workers > n {
		workers = n
	}

	var (
		mu     sync.Mutex
		failed atomic.Bool
	)
	runOne := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				failed.Store(true)
				mu.Lock()
				failures = append(failures, Failure{Index: i, Value: r, Stack: debug.Stack()})
				mu.Unlock()
			}
		}()
		out[i] = job(i)
	}
	halted := func() bool {
		return stop.Stopped() || (failFast && failed.Load())
	}

	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			if halted() {
				skipped = append(skipped, i)
				continue
			}
			runOne(i)
		}
		sortFailures(failures)
		return out, failures, skipped
	}

	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	next.Store(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				if halted() {
					mu.Lock()
					skipped = append(skipped, i)
					mu.Unlock()
					continue
				}
				runOne(i)
			}
		}()
	}
	wg.Wait()
	sortFailures(failures)
	sort.Ints(skipped)
	return out, failures, skipped
}

func sortFailures(failures []Failure) {
	sort.Slice(failures, func(i, j int) bool { return failures[i].Index < failures[j].Index })
}
