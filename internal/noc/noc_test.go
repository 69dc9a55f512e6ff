package noc

import (
	"testing"

	"jumanji/internal/sim"
	"jumanji/internal/topo"
)

func TestFlits(t *testing.T) {
	cfg := DefaultConfig()
	tests := []struct {
		bytes, want int
	}{
		{0, 1},
		{1, 1},
		{16, 1},
		{17, 2},
		{64, 4},
		{72, 5},
	}
	for _, tt := range tests {
		if got := cfg.Flits(tt.bytes); got != tt.want {
			t.Errorf("Flits(%d) = %d, want %d", tt.bytes, got, tt.want)
		}
	}
}

func TestUncontendedLatency(t *testing.T) {
	cfg := DefaultConfig() // 3 cycles/hop
	if got := cfg.UncontendedLatency(0, 64); got != 0 {
		t.Errorf("zero hops latency = %d", got)
	}
	// 2 hops, 64 B payload = 4 flits: 2*3 + 3 = 9 cycles.
	if got := cfg.UncontendedLatency(2, 64); got != 9 {
		t.Errorf("latency = %d, want 9", got)
	}
	// Control message (1 flit): 2*3 = 6.
	if got := cfg.UncontendedLatency(2, 0); got != 6 {
		t.Errorf("control latency = %d, want 6", got)
	}
}

func TestSendLocalIsFree(t *testing.T) {
	var e sim.Engine
	n := New(&e, topo.NewMesh(2, 2), DefaultConfig())
	var lat sim.Time = 99
	n.Send(1, 1, 64, func(l sim.Time) { lat = l })
	e.RunAll()
	if lat != 0 {
		t.Errorf("local delivery latency = %d, want 0", lat)
	}
}

func TestSendMatchesAnalyticWhenUncontended(t *testing.T) {
	var e sim.Engine
	mesh := topo.NewMesh(5, 4)
	cfg := DefaultConfig()
	n := New(&e, mesh, cfg)
	var lat sim.Time
	// 0 -> 19 is 7 hops; single-flit control message.
	n.Send(0, 19, 0, func(l sim.Time) { lat = l })
	e.RunAll()
	want := cfg.UncontendedLatency(7, 0)
	if lat != want {
		t.Errorf("event-driven latency = %d, analytic = %d", lat, want)
	}
	if n.Delivered != 1 {
		t.Errorf("Delivered = %d", n.Delivered)
	}
}

func TestSendMultiFlitSerialization(t *testing.T) {
	var e sim.Engine
	cfg := DefaultConfig()
	n := New(&e, topo.NewMesh(2, 1), cfg)
	var lat sim.Time
	n.Send(0, 1, 64, func(l sim.Time) { lat = l }) // 1 hop, 4 flits
	e.RunAll()
	// Link occupied 4 cycles, then 2-cycle router: the event model charges
	// serialization at every hop (a slightly conservative wormhole model).
	if lat != 6 {
		t.Errorf("multi-flit latency = %d, want 6", lat)
	}
}

func TestLinkContentionQueues(t *testing.T) {
	var e sim.Engine
	cfg := DefaultConfig()
	n := New(&e, topo.NewMesh(2, 1), cfg)
	var first, second sim.Time
	n.Send(0, 1, 64, func(l sim.Time) { first = l })
	n.Send(0, 1, 64, func(l sim.Time) { second = l })
	e.RunAll()
	if second <= first {
		t.Errorf("contending message not delayed: first=%d second=%d", first, second)
	}
	if n.QueuedCycles() == 0 {
		t.Error("expected link queueing cycles")
	}
}

func TestCrossTrafficDoesNotBlockDisjointRoutes(t *testing.T) {
	var e sim.Engine
	n := New(&e, topo.NewMesh(2, 2), DefaultConfig())
	var a, b sim.Time
	n.Send(0, 1, 0, func(l sim.Time) { a = l })
	n.Send(2, 3, 0, func(l sim.Time) { b = l })
	e.RunAll()
	if a != b {
		t.Errorf("disjoint routes interfered: %d vs %d", a, b)
	}
	if n.QueuedCycles() != 0 {
		t.Error("disjoint routes should not queue")
	}
}

func TestRouterDelaySensitivity(t *testing.T) {
	// Fig. 18's knob: higher router delay means proportionally higher latency.
	mesh := topo.NewMesh(5, 4)
	var prev sim.Time
	for _, rd := range []sim.Time{1, 2, 3} {
		var e sim.Engine
		cfg := Config{RouterDelay: rd, LinkDelay: 1, FlitBytes: 16}
		n := New(&e, mesh, cfg)
		var lat sim.Time
		n.Send(0, 19, 0, func(l sim.Time) { lat = l })
		e.RunAll()
		if lat <= prev {
			t.Errorf("router delay %d: latency %d not increasing", rd, lat)
		}
		prev = lat
	}
}

// UncontendedLatency returns the cycles for a message of the given payload
// to travel `hops` hops with no contention: per-hop router+link delay plus
// serialization of the remaining flits behind the head flit.
func (c Config) UncontendedLatency(hops, payloadBytes int) sim.Time {
	if hops <= 0 {
		return 0
	}
	head := sim.Time(hops) * c.HopCycles()
	tail := sim.Time(c.Flits(payloadBytes) - 1) // body flits pipeline behind the head
	return head + tail
}

// QueuedCycles returns total cycles messages spent queueing on links —
// an aggregate congestion measure.
func (n *Network) QueuedCycles() uint64 {
	var total uint64
	for _, s := range n.links {
		total += s.TotalQueuedCycles
	}
	return total
}
