package parallel

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

// mapClean runs MapRecover fail-fast with no stopper and fails the test
// if any job panicked or was skipped.
func mapClean[T any](t *testing.T, workers, n int, job func(int) T) []T {
	t.Helper()
	out, failures, skipped := MapRecover(workers, n, nil, true, job)
	if len(failures) != 0 || len(skipped) != 0 {
		t.Fatalf("workers=%d: failures %v, skipped %v", workers, failures, skipped)
	}
	return out
}

func TestMapIndexedResults(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		got := mapClean(t, workers, 100, func(i int) int { return i * i })
		if len(got) != 100 {
			t.Fatalf("workers=%d: %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	if got := mapClean(t, 4, 0, func(i int) int { return i }); got != nil {
		t.Fatalf("n=0 returned %v", got)
	}
}

func TestMapRunsEveryJobOnce(t *testing.T) {
	var counts [500]atomic.Int32
	mapClean(t, 8, len(counts), func(i int) struct{} {
		counts[i].Add(1)
		return struct{}{}
	})
	for i := range counts {
		if n := counts[i].Load(); n != 1 {
			t.Fatalf("job %d ran %d times", i, n)
		}
	}
}

func TestMapSerialStaysInline(t *testing.T) {
	// workers=1 must run on the calling goroutine: job order is 0,1,2,...
	// and no goroutines are spawned (the serial recovery path).
	var order []int
	mapClean(t, 1, 10, func(i int) struct{} {
		order = append(order, i)
		return struct{}{}
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order %v", order)
		}
	}
}

func TestMapPanicPropagates(t *testing.T) {
	// A panicking job is recovered into a Failure carrying its payload and
	// stack; it never escapes MapRecover.
	_, failures, _ := MapRecover(4, 50, nil, true, func(i int) int {
		if i == 23 {
			panic("boom")
		}
		return i
	})
	if len(failures) != 1 || failures[0].Index != 23 {
		t.Fatalf("failures = %v, want job 23 only", failures)
	}
	if !strings.Contains(strings.ToLower(nonNilString(failures[0].Value)), "boom") {
		t.Fatalf("failure lost its payload: %v", failures[0].Value)
	}
	if len(failures[0].Stack) == 0 {
		t.Fatal("failure carries no stack")
	}
}

func TestMapPanicCarriesJobIndex(t *testing.T) {
	// Both execution paths must name the failing cell: a sweep of hundreds
	// of cells is undebuggable from a bare payload.
	for _, workers := range []int{1, 4} {
		_, failures, _ := MapRecover(workers, 50, nil, true, func(i int) int {
			if i == 23 {
				panic("boom")
			}
			return i
		})
		err := CombinedError(failures)
		if err == nil {
			t.Fatalf("workers=%d: no failure recorded", workers)
		}
		if msg := err.Error(); !strings.Contains(msg, "job 23") || !strings.Contains(msg, "boom") {
			t.Fatalf("workers=%d: error %q missing job index or payload", workers, msg)
		}
	}
}

func nonNilString(v any) string {
	if err, ok := v.(error); ok {
		return err.Error()
	}
	if s, ok := v.(string); ok {
		return s
	}
	return ""
}

func TestWorkersDefault(t *testing.T) {
	if Workers(0) != runtime.NumCPU() {
		t.Errorf("Workers(0) = %d, want NumCPU %d", Workers(0), runtime.NumCPU())
	}
	if Workers(-3) != runtime.NumCPU() {
		t.Errorf("Workers(-3) = %d", Workers(-3))
	}
	if Workers(5) != 5 {
		t.Errorf("Workers(5) = %d", Workers(5))
	}
}
