package parallel

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// Satellite pin: when several jobs panic in one pooled fail-fast run, the
// combined error must name the lowest failing index — not whichever worker
// loses the race — and must list every failing index.
func TestMapMultiPanicReRaisesLowestIndex(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		// With failFast the race decides how many of the three panics
		// fire; we only require that the named index is the lowest among
		// whichever did (the sleep normally lets all three land).
		_, failures, _ := MapRecover(4, 50, nil, true, func(i int) int {
			if i == 7 || i == 23 || i == 41 {
				// Let sibling panics land before fail-fast halts handout.
				time.Sleep(5 * time.Millisecond)
				panic("boom")
			}
			return i
		})
		err := CombinedError(failures)
		if err == nil {
			t.Fatal("expected a failure")
		}
		msg := err.Error()
		if !strings.Contains(msg, "boom") {
			t.Fatalf("message %q does not mention the panic value", msg)
		}
		if !strings.Contains(msg, "job 7 panicked") {
			t.Fatalf("message %q does not name the lowest failing index", msg)
		}
		if strings.Contains(msg, "all failing jobs:") {
			if idx := strings.Index(msg, "all failing jobs: 7"); idx < 0 {
				t.Fatalf("failing-jobs list in %q is not sorted from the lowest index", msg)
			}
		}
	}
}

func TestCombinedError(t *testing.T) {
	if err := CombinedError(nil); err != nil {
		t.Fatalf("CombinedError(nil) = %v, want nil", err)
	}
	one := CombinedError([]Failure{{Index: 9, Value: "x"}})
	if got, want := one.Error(), "parallel: job 9 panicked: x"; got != want {
		t.Fatalf("single failure error = %q, want %q", got, want)
	}
	many := CombinedError([]Failure{
		{Index: 41, Value: "later"},
		{Index: 7, Value: "first"},
		{Index: 23, Value: "middle"},
	})
	want := "parallel: job 7 panicked: first (all failing jobs: 7, 23, 41)"
	if many.Error() != want {
		t.Fatalf("multi failure error = %q, want %q", many.Error(), want)
	}
}

func TestMapRecoverKeepGoing(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		out, failures, skipped := MapRecover(workers, 30, nil, false, func(i int) int {
			ran.Add(1)
			if i == 5 || i == 17 {
				panic("cell blew up")
			}
			return i * 2
		})
		if ran.Load() != 30 {
			t.Fatalf("workers=%d: keep-going ran %d jobs, want all 30", workers, ran.Load())
		}
		if len(skipped) != 0 {
			t.Fatalf("workers=%d: keep-going skipped %v, want none", workers, skipped)
		}
		if len(failures) != 2 || failures[0].Index != 5 || failures[1].Index != 17 {
			t.Fatalf("workers=%d: failures = %+v, want indices [5 17]", workers, failures)
		}
		for _, f := range failures {
			if len(f.Stack) == 0 {
				t.Fatalf("workers=%d: failure %d has no stack", workers, f.Index)
			}
			if f.Value != "cell blew up" {
				t.Fatalf("workers=%d: failure %d value = %v", workers, f.Index, f.Value)
			}
		}
		for i, v := range out {
			switch i {
			case 5, 17:
				if v != 0 {
					t.Fatalf("workers=%d: failed cell %d has result %d, want zero value", workers, i, v)
				}
			default:
				if v != i*2 {
					t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*2)
				}
			}
		}
	}
}

func TestMapRecoverFailFastSkips(t *testing.T) {
	// Serial path: deterministic — everything after the panic is skipped.
	out, failures, skipped := MapRecover(1, 10, nil, true, func(i int) int {
		if i == 3 {
			panic("stop here")
		}
		return i + 100
	})
	if len(failures) != 1 || failures[0].Index != 3 {
		t.Fatalf("failures = %+v, want single failure at 3", failures)
	}
	if want := []int{4, 5, 6, 7, 8, 9}; len(skipped) != len(want) {
		t.Fatalf("skipped = %v, want %v", skipped, want)
	} else {
		for i, s := range skipped {
			if s != want[i] {
				t.Fatalf("skipped = %v, want %v", skipped, want)
			}
		}
	}
	for i := 0; i < 3; i++ {
		if out[i] != i+100 {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], i+100)
		}
	}
}

func TestMapRecoverStopper(t *testing.T) {
	var stop Stopper
	stop.Stop()
	out, failures, skipped := MapRecover(4, 8, &stop, false, func(i int) int { return i })
	if len(out) != 8 || len(failures) != 0 {
		t.Fatalf("out=%v failures=%v", out, failures)
	}
	if len(skipped) != 8 {
		t.Fatalf("pre-stopped run skipped %v, want all 8 jobs", skipped)
	}
	for i, s := range skipped {
		if s != i {
			t.Fatalf("skipped = %v, want sorted 0..7", skipped)
		}
	}

	// Nil Stopper never stops; nil-safety of the methods.
	var nilStop *Stopper
	if nilStop.Stopped() {
		t.Fatal("nil Stopper reports stopped")
	}
	nilStop.Stop() // must not crash
}

func TestMapRecoverEmpty(t *testing.T) {
	out, failures, skipped := MapRecover(4, 0, nil, false, func(i int) int { return i })
	if out != nil || failures != nil || skipped != nil {
		t.Fatalf("MapRecover with n=0 = (%v, %v, %v), want all nil", out, failures, skipped)
	}
}

func TestWatchdogSoftAndHard(t *testing.T) {
	var stuck, hard, canceled atomic.Int64
	w := &Watchdog{
		Soft:    20 * time.Millisecond,
		Hard:    80 * time.Millisecond,
		OnStuck: func(i int, d time.Duration) { stuck.Add(1) },
		OnHard:  func(i int, d time.Duration) { hard.Add(1) },
	}
	defer w.Close()

	release := make(chan struct{})
	end := w.Begin(42, func() {
		canceled.Add(1)
		close(release)
	})
	<-release // hard deadline must fire and cancel
	end()

	deadline := time.Now().Add(2 * time.Second)
	for stuck.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if stuck.Load() != 1 {
		t.Fatalf("soft deadline fired %d times, want exactly 1", stuck.Load())
	}
	if hard.Load() != 1 || canceled.Load() != 1 {
		t.Fatalf("hard=%d canceled=%d, want 1 and 1", hard.Load(), canceled.Load())
	}

	// A cell that finishes quickly never trips the watchdog.
	done := w.Begin(43, func() { t.Error("fast cell was hard-canceled") })
	done()
	time.Sleep(50 * time.Millisecond)
	if stuck.Load() != 1 {
		t.Fatalf("finished cell tripped the soft deadline (count %d)", stuck.Load())
	}
}

func TestWatchdogDisabled(t *testing.T) {
	var nilW *Watchdog
	end := nilW.Begin(0, nil)
	end()
	nilW.Close()

	zero := &Watchdog{} // no deadlines set: Begin must not start a scanner
	end = zero.Begin(1, nil)
	end()
	zero.Close()
}
