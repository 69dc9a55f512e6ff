package statusz

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"jumanji/internal/obs/tsdb"
)

func dumpWith(t *testing.T, series string, vals ...float64) []tsdb.SeriesData {
	t.Helper()
	db := tsdb.New(64)
	for i, v := range vals {
		db.Append(series, i, v)
	}
	return db.Dump()
}

func TestHealthz(t *testing.T) {
	srv := startTestServer(t, nil, nil)
	code, _, body := get(t, "http://"+srv.Addr()+"/healthz")
	if code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
}

func TestStatuszBuildInfoAndAlerts(t *testing.T) {
	srv := startTestServer(t, nil, nil)
	// Two samples above the deadline after one below: slo-violation-onset.
	srv.PublishTimeseries(dumpWith(t, "system.lat_norm.p95", 0.8, 1.4))
	code, _, body := get(t, "http://"+srv.Addr()+"/statusz")
	if code != http.StatusOK {
		t.Fatalf("/statusz status %d", code)
	}
	var got struct {
		Info   Info         `json:"info"`
		Alerts []tsdb.Alert `json:"alerts"`
	}
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got.Info.GoVersion == "" {
		t.Fatal("info.go_version is empty; want the toolchain version")
	}
	if len(got.Alerts) != 1 || got.Alerts[0].Rule != tsdb.RuleSLOOnset {
		t.Fatalf("alerts = %+v; want one %s", got.Alerts, tsdb.RuleSLOOnset)
	}
}

func TestTimeseriesWindowQueries(t *testing.T) {
	srv := startTestServer(t, nil, nil)
	db := tsdb.New(64)
	for i := 0; i < 5; i++ {
		db.Append("a.count", i, float64(i))
		db.Append("b.count", i, float64(10*i))
	}
	srv.PublishTimeseries(db.Dump())

	var got timeseriesBody
	_, ctype, body := get(t, "http://"+srv.Addr()+"/timeseries")
	if !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("content type %q", ctype)
	}
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Series) != 2 {
		t.Fatalf("unfiltered series count = %d; want 2", len(got.Series))
	}

	_, _, body = get(t, "http://"+srv.Addr()+"/timeseries?series=b.count&last=2")
	got = timeseriesBody{}
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Series) != 1 || got.Series[0].Name != "b.count" {
		t.Fatalf("filtered series = %+v; want just b.count", got.Series)
	}
	sd := got.Series[0]
	if len(sd.Samples) != 2 || sd.Start != 3 || sd.Samples[0].Value != 30 {
		t.Fatalf("windowed samples = %+v (start %d); want last 2 with start 3", sd.Samples, sd.Start)
	}

	code, _, _ := get(t, "http://"+srv.Addr()+"/timeseries?last=bogus")
	if code != http.StatusBadRequest {
		t.Fatalf("bad last status = %d; want 400", code)
	}
}

func TestTimeseriesEmptyBeforePublish(t *testing.T) {
	srv := startTestServer(t, nil, nil)
	_, _, body := get(t, "http://"+srv.Addr()+"/timeseries")
	var got timeseriesBody
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Series) != 0 {
		t.Fatalf("series before any publish = %+v; want none", got.Series)
	}
}

// readEvent reads one complete SSE frame ("event:" line then "data:" line).
func readEvent(t *testing.T, r *bufio.Reader) (event, data string) {
	t.Helper()
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("reading SSE stream: %v", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "" && event != "":
			return event, data
		}
	}
}

func TestStreamHelloSamplesAndAlerts(t *testing.T) {
	srv := startTestServer(t, nil, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", "http://"+srv.Addr()+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("content type %q", ct)
	}
	r := bufio.NewReader(resp.Body)

	event, data := readEvent(t, r)
	if event != "hello" || !strings.Contains(data, "figures-test") {
		t.Fatalf("first event = %q %q; want hello with the command name", event, data)
	}

	// The handler subscribes before it writes hello, so this publish is
	// guaranteed to reach the stream.
	srv.PublishTimeseries(dumpWith(t, "system.lat_norm.p95", 0.8, 1.4))

	event, data = readEvent(t, r)
	if event != "samples" {
		t.Fatalf("second event = %q %q; want samples", event, data)
	}
	var samples []streamSample
	if err := json.Unmarshal([]byte(data), &samples); err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 || samples[1].Value != 1.4 {
		t.Fatalf("samples = %+v; want the two published points", samples)
	}

	event, data = readEvent(t, r)
	var alert tsdb.Alert
	if event != "alert" || json.Unmarshal([]byte(data), &alert) != nil || alert.Rule != tsdb.RuleSLOOnset {
		t.Fatalf("third event = %q %q; want an %s alert", event, data, tsdb.RuleSLOOnset)
	}
}

// TestStreamPublishRightAfterHello is the subscribe-before-hello stress
// test: a publish issued the instant a client has read hello must reach
// that client, so the handler has to subscribe before it writes hello. The
// race window is narrow; CI runs this with -count=200 -cpu 1,2.
func TestStreamPublishRightAfterHello(t *testing.T) {
	srv := startTestServer(t, nil, nil)
	var vals []float64
	for i := 0; i < 20; i++ {
		func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, "GET", "http://"+srv.Addr()+"/stream", nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			r := bufio.NewReader(resp.Body)
			if event, _ := readEvent(t, r); event != "hello" {
				t.Fatalf("first event %q, want hello", event)
			}
			// Each publish adds one in-deadline sample: one samples frame,
			// no alert.
			vals = append(vals, 0.5)
			srv.PublishTimeseries(dumpWith(t, "system.lat_norm.p95", vals...))
			if event, data := readEvent(t, r); event != "samples" {
				t.Fatalf("event after publish = %q %q; want samples", event, data)
			}
		}()
	}
}

func TestStreamSecondPublishOnlySendsNewSamples(t *testing.T) {
	srv := startTestServer(t, nil, nil)
	db := tsdb.New(64)
	db.Append("a.count", 0, 1)
	srv.PublishTimeseries(db.Dump())

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", "http://"+srv.Addr()+"/stream", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	r := bufio.NewReader(resp.Body)
	readEvent(t, r) // hello

	db.Append("a.count", 1, 2)
	srv.PublishTimeseries(db.Dump())
	event, data := readEvent(t, r)
	var samples []streamSample
	if event != "samples" || json.Unmarshal([]byte(data), &samples) != nil {
		t.Fatalf("event = %q %q; want samples", event, data)
	}
	if len(samples) != 1 || samples[0].Epoch != 1 || samples[0].Value != 2 {
		t.Fatalf("samples = %+v; want only the new epoch-1 point", samples)
	}
}

func TestPublishTimeseriesNilServer(t *testing.T) {
	var srv *Server
	srv.PublishTimeseries(dumpWith(t, "a", 1)) // must not panic
}

func TestStreamDropAndCount(t *testing.T) {
	var h Hub
	sub := h.Subscribe()
	// Overflow the bounded queue: the excess must be dropped and counted,
	// never block the publisher.
	for i := 0; i < subscriberBuffer+5; i++ {
		h.Broadcast([]byte("x"))
	}
	if n := h.TakeDropped(sub); n != 5 {
		t.Fatalf("dropped = %d; want 5", n)
	}
	if n := h.TakeDropped(sub); n != 0 {
		t.Fatalf("takeDropped did not reset: %d", n)
	}
	h.Unsubscribe(sub)
	if h.Subscribers() != 0 {
		t.Fatal("unsubscribe left the subscriber registered")
	}
}

func TestStreamDroppedEventReachesClient(t *testing.T) {
	srv := startTestServer(t, nil, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", "http://"+srv.Addr()+"/stream", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	r := bufio.NewReader(resp.Body)
	readEvent(t, r) // hello

	// Mark the subscriber as having lagged (the handler goroutine drains
	// the queue concurrently, so overflowing it for real would race), then
	// deliver one event: the handler must follow it with a "dropped"
	// notification carrying the exact count.
	srv.hub.mu.Lock()
	for sub := range srv.hub.subs {
		sub.dropped = 7
	}
	srv.hub.mu.Unlock()
	srv.hub.Broadcast(SSEEvent("samples", []streamSample{{Series: "a", Epoch: 0}}))

	if event, _ := readEvent(t, r); event != "samples" {
		t.Fatalf("first event after lag = %q; want samples", event)
	}
	event, data := readEvent(t, r)
	if event != "dropped" {
		t.Fatalf("second event after lag = %q %q; want dropped", event, data)
	}
	var got struct {
		Events uint64 `json:"events"`
	}
	if err := json.Unmarshal([]byte(data), &got); err != nil || got.Events != 7 {
		t.Fatalf("dropped event payload = %q (err %v); want events=7", data, err)
	}
}

func TestStreamSubscriberTeardownNoLeak(t *testing.T) {
	srv := startTestServer(t, nil, nil)
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", "http://"+srv.Addr()+"/stream", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	r := bufio.NewReader(resp.Body)
	readEvent(t, r) // hello: the handler is past subscribe()
	if n := srv.hub.Subscribers(); n != 1 {
		t.Fatalf("subscribers after connect = %d; want 1", n)
	}

	// Dropping the client must unwind the handler goroutine and its hub
	// registration; a leak here would pin every disconnected client's
	// channel for the rest of the run.
	cancel()
	resp.Body.Close()
	deadline := time.Now().Add(10 * time.Second)
	for srv.hub.Subscribers() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("subscriber never unregistered after disconnect (%d left)", srv.hub.Subscribers())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShutdownDrainsStreamSubscribers is the graceful-shutdown regression
// test: Shutdown must release /stream subscriber loops (each client gets a
// final "shutdown" frame and a clean EOF, not a connection reset), return
// within its context, and leave no subscriber registered.
func TestShutdownDrainsStreamSubscribers(t *testing.T) {
	srv := startTestServer(t, nil, nil)
	resp, err := http.Get("http://" + srv.Addr() + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	r := bufio.NewReader(resp.Body)
	readEvent(t, r) // hello: the handler is registered

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(ctx) }()

	// The client observes an orderly end of stream: a complete "shutdown"
	// frame, then EOF — never a mid-frame reset.
	if event, _ := readEvent(t, r); event != "shutdown" {
		t.Fatalf("final event = %q; want shutdown", event)
	}
	if _, err := r.ReadString('\n'); err != io.EOF {
		t.Fatalf("after the shutdown frame: %v; want io.EOF", err)
	}

	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v (a hanging SSE loop would surface as context.DeadlineExceeded)", err)
	}
	if n := srv.hub.Subscribers(); n != 0 {
		t.Fatalf("subscribers after Shutdown = %d; want 0", n)
	}

	// Shutdown and Close are idempotent together (the CLI falls back from
	// one to the other).
	if err := srv.Close(); err != nil && err != http.ErrServerClosed {
		t.Fatalf("Close after Shutdown: %v", err)
	}
}

// A nil server must accept Shutdown, matching Close's nil-safety.
func TestShutdownNilServer(t *testing.T) {
	var srv *Server
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// Subscribers reports the registered subscriber count (the teardown
// regression tests poll it).
func (h *Hub) Subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}
