package serve

import (
	"bufio"
	"context"
	"net/http"
	"strings"
	"testing"
	"time"

	"jumanji/internal/obs/statusz"
)

// TestStreamPublishRightAfterHello is the subscribe-before-hello stress
// test: a frame broadcast the instant a client has read hello must reach
// that client, so the handler has to subscribe before it writes hello. The
// race window is narrow; CI runs this with -count=200 -cpu 1,2.
func TestStreamPublishRightAfterHello(t *testing.T) {
	reg, release := blockingRegistry(t)
	s, base := startServer(t, func(c *Config) { c.Registry = reg })
	t.Cleanup(func() { // runs before startServer's Close: let the run finish
		close(release)
		if err := s.Drain(context.Background()); err != nil {
			t.Error(err)
		}
	})
	ack, _ := submit(t, base, &Spec{Type: "block", Seed: 1})
	s.mu.Lock()
	e := s.exps[ack.ID]
	s.mu.Unlock()

	for i := 0; i < 20; i++ {
		func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, "GET", base+"/experiments/"+ack.ID+"/stream", nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			r := bufio.NewReader(resp.Body)
			if ev := nextEvent(t, r); ev != "hello" {
				t.Fatalf("first frame %q, want hello", ev)
			}
			e.hub.Broadcast(statusz.SSEEvent("probe", map[string]int{"i": i}))
			// State and progress frames may come first; the probe must come.
			for nextEvent(t, r) != "probe" {
			}
		}()
	}
}

// nextEvent returns the event name of the next complete SSE frame.
func nextEvent(t *testing.T, r *bufio.Reader) string {
	t.Helper()
	event := ""
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("reading SSE stream: %v", err)
		}
		line = strings.TrimRight(line, "\n")
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			event = name
		} else if line == "" && event != "" {
			return event
		}
	}
}
