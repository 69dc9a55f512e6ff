package bank

import (
	"testing"

	"jumanji/internal/sim"
)

func TestTimedBankSingleAccess(t *testing.T) {
	var e sim.Engine
	tb := NewTimed(&e, smallConfig(LRU), 1, 13)
	var res AccessResult
	tb.AccessTimed(64, 0, func(r AccessResult) { res = r })
	e.RunAll()
	if res.Hit {
		t.Error("first access should miss")
	}
	if res.Latency != 13 {
		t.Errorf("uncontended latency = %d, want 13", res.Latency)
	}
}

func TestTimedBankPortContention(t *testing.T) {
	// Two simultaneous accesses on a single-port bank: the second observes
	// queueing delay — the port-attack signal.
	var e sim.Engine
	tb := NewTimed(&e, smallConfig(LRU), 1, 13)
	var latencies []sim.Time
	tb.AccessTimed(64, 0, func(r AccessResult) { latencies = append(latencies, r.Latency) })
	tb.AccessTimed(128, 1, func(r AccessResult) { latencies = append(latencies, r.Latency) })
	e.RunAll()
	if latencies[0] != 13 || latencies[1] != 26 {
		t.Errorf("latencies = %v, want [13 26]", latencies)
	}
	if _, queued := tb.PortStats(); queued != 13 {
		t.Errorf("queued cycles = %d, want 13", queued)
	}
}

func TestTimedBankTwoPortsNoContention(t *testing.T) {
	var e sim.Engine
	tb := NewTimed(&e, smallConfig(LRU), 2, 13)
	var latencies []sim.Time
	tb.AccessTimed(64, 0, func(r AccessResult) { latencies = append(latencies, r.Latency) })
	tb.AccessTimed(128, 1, func(r AccessResult) { latencies = append(latencies, r.Latency) })
	e.RunAll()
	if latencies[0] != 13 || latencies[1] != 13 {
		t.Errorf("latencies = %v, want [13 13]", latencies)
	}
}

func TestTimedBankFunctionalStateShared(t *testing.T) {
	var e sim.Engine
	tb := NewTimed(&e, smallConfig(LRU), 1, 13)
	hits := 0
	tb.AccessTimed(64, 0, nil)
	tb.AccessTimed(64, 0, func(r AccessResult) {
		if r.Hit {
			hits++
		}
	})
	e.RunAll()
	if hits != 1 {
		t.Error("second timed access to same line should hit")
	}
}

// PortStats returns (served, totalQueuedCycles) for the bank's ports.
func (t *TimedBank) PortStats() (served, queuedCycles uint64) {
	return t.ports.TotalServed, t.ports.TotalQueuedCycles
}
