package bank

import "jumanji/internal/sim"

// TimedBank combines a functional Bank with limited ports modeled as a FIFO
// sim.Server. Each access occupies a port for the bank's access latency, so
// concurrent accesses from different cores queue — the timing side channel
// the LLC port attack exploits (Sec. VI-B).
type TimedBank struct {
	*Bank
	eng   *sim.Engine
	ports *sim.Server
	// AccessLatency is the cycles a port is occupied per access (Table II:
	// 13-cycle bank latency).
	AccessLatency sim.Time
}

// NewTimed wraps a functional bank with nPorts ports on the given engine.
func NewTimed(eng *sim.Engine, cfg Config, nPorts int, accessLatency sim.Time) *TimedBank {
	return &TimedBank{
		Bank:          New(cfg),
		eng:           eng,
		ports:         sim.NewServer(eng, nPorts),
		AccessLatency: accessLatency,
	}
}

// AccessResult reports the outcome of a timed access.
type AccessResult struct {
	Hit     bool
	Issued  sim.Time // when the request arrived at the bank
	Done    sim.Time // when the bank finished serving it
	Latency sim.Time // Done - Issued, including port queueing
}

// AccessTimed issues an access that completes after port queueing plus the
// access latency; done receives the result (done may be nil). The functional
// lookup happens at service time, preserving request order.
func (t *TimedBank) AccessTimed(addr uint64, p PartitionID, done func(AccessResult)) {
	issued := t.eng.Now()
	t.ports.Use(t.AccessLatency, func() {
		hit := t.Bank.Access(addr, p)
		if done != nil {
			now := t.eng.Now()
			done(AccessResult{Hit: hit, Issued: issued, Done: now, Latency: now - issued})
		}
	})
}
