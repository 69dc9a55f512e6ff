// Package statusz serves live run introspection over HTTP for long sweeps:
// /metrics in Prometheus text format, /statusz as JSON (run config, build
// info, cells done/total, worker utilization, ETA, anomaly alerts),
// /healthz for liveness probes, /timeseries for flight-recorder window
// queries, /stream for a live SSE feed of epoch samples and alerts,
// /explain for live placement-provenance queries (why did VM N land where
// it did), and the standard /debug/pprof handlers. It exists because a
// multi-minute cmd/figures run is otherwise a black box until it exits — the deterministic obs sinks only write after
// the run.
//
// The server never touches a live Registry: the deterministic sinks are
// single-threaded by design, so reading one mid-run would race the
// simulation. Instead the harness publishes immutable snapshot copies at
// its cell-merge points (PublishMetrics), and the thread-safe sources — the
// parallel.Progress tracker and the obs.Spans phase timers — are read live.
// Serving status therefore perturbs neither results nor determinism: figure
// output is byte-identical with and without -status.
package statusz

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime/debug"
	"sync"
	"time"

	"jumanji/internal/obs"
	"jumanji/internal/obs/prom"
	"jumanji/internal/obs/tsdb"
	"jumanji/internal/parallel"
)

// Info is the static run description shown by /statusz. Start fills the
// build fields from runtime/debug.ReadBuildInfo when they are empty, and
// CLI.Start fills Flags from the explicitly-set command-line flags.
type Info struct {
	Command   string            `json:"command"`                // e.g. "figures"
	GoVersion string            `json:"go_version,omitempty"`   // toolchain that built the binary
	Revision  string            `json:"vcs_revision,omitempty"` // VCS commit, "-dirty" suffixed on modified trees
	Config    map[string]string `json:"config,omitempty"`       // run parameters (mixes, epochs, seed, ...)
	Flags     map[string]string `json:"flags,omitempty"`        // command-line flags explicitly set for this run
}

// fillBuildInfo populates empty build fields from the binary's embedded
// build metadata (best-effort: test binaries may carry no VCS stamps).
func fillBuildInfo(info *Info) {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return
	}
	if info.GoVersion == "" {
		info.GoVersion = bi.GoVersion
	}
	if info.Revision == "" {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" && dirty {
			rev += "-dirty"
		}
		info.Revision = rev
	}
}

// FlagSummary collects the flags explicitly set on fs (the command line
// summary /statusz shows). Call after fs.Parse.
func FlagSummary(fs *flag.FlagSet) map[string]string {
	out := make(map[string]string)
	fs.Visit(func(f *flag.Flag) { out[f.Name] = f.Value.String() })
	if len(out) == 0 {
		return nil
	}
	return out
}

// Server is the status HTTP server. Start it before the run begins so the
// endpoints answer for the whole run, including the 0-cells-done phase.
type Server struct {
	info     Info
	progress *parallel.Progress
	spans    *obs.Spans
	start    time.Time

	mu        sync.Mutex
	published []obs.MetricSnapshot

	// Flight-recorder state: the last published dump, the incremental
	// anomaly detector, its alert history, and each series' next unstreamed
	// global sample index. All guarded by tsMu; the hub has its own lock.
	tsMu      sync.Mutex
	tsDump    []tsdb.SeriesData
	det       *tsdb.Detector
	alerts    []tsdb.Alert
	streamPos map[string]uint64

	hub Hub

	// explain indexes published provenance records for /explain (its own
	// lock; see explain.go).
	explain explainStore

	ln  net.Listener
	srv *http.Server
	// done is closed exactly once when the server begins shutting down;
	// long-lived handlers (the /stream SSE loop) select on it so graceful
	// Shutdown does not hang waiting for subscribers that would otherwise
	// never return.
	done     chan struct{}
	downOnce sync.Once
}

// Start listens on addr (host:port; ":0" picks a free port — see Addr) and
// serves in a background goroutine. progress and spans may be nil; the
// corresponding sections are simply empty.
func Start(addr string, info Info, progress *parallel.Progress, spans *obs.Spans) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("statusz: listen %s: %w", addr, err)
	}
	fillBuildInfo(&info)
	s := &Server{info: info, progress: progress, spans: spans, start: time.Now(), ln: ln,
		done: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/statusz", s.handleStatusz)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/timeseries", s.handleTimeseries)
	mux.HandleFunc("/stream", s.handleStream)
	mux.HandleFunc("/explain", s.handleExplain)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(ln) //nolint:errcheck // Serve always returns non-nil on Close
	return s, nil
}

// Addr returns the server's bound address (resolves ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down immediately, resetting in-flight
// connections. Safe on a nil Server. Prefer Shutdown for a graceful exit.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	s.downOnce.Do(func() { close(s.done) })
	return s.srv.Close()
}

// Shutdown stops the server gracefully: the listener closes, the SSE
// subscriber loops are released (each client receives a final "shutdown"
// frame and a clean connection close), and in-flight requests — a /metrics
// scrape, a /statusz poll — drain normally instead of seeing a reset. ctx
// bounds the drain, exactly as for http.Server.Shutdown. Safe on a nil
// Server.
func (s *Server) Shutdown(ctx context.Context) error {
	if s == nil {
		return nil
	}
	s.downOnce.Do(func() { close(s.done) })
	return s.srv.Shutdown(ctx)
}

// PublishMetrics installs a registry snapshot for /metrics to serve. The
// harness calls it at cell-merge points, where it holds the only reference
// to the merged registry; between publishes /metrics serves the previous
// snapshot. Safe on a nil Server, so callers publish unconditionally.
func (s *Server) PublishMetrics(snaps []obs.MetricSnapshot) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.published = snaps
	s.mu.Unlock()
}

// progressSnapshots renders the live sweep progress as metric snapshots so
// /metrics always has content, even with -metrics unset.
func progressSnapshots(ps parallel.ProgressSnapshot) []obs.MetricSnapshot {
	return []obs.MetricSnapshot{
		{Name: "run.cells_done", Kind: obs.KindCounter, Value: float64(ps.Done)},
		{Name: "run.cells_total", Kind: obs.KindGauge, Value: float64(ps.Total)},
		{Name: "run.workers", Kind: obs.KindGauge, Value: float64(ps.Workers)},
		{Name: "run.elapsed_seconds", Kind: obs.KindGauge, Value: ps.Elapsed.Seconds()},
		{Name: "run.cells_per_second", Kind: obs.KindGauge, Value: ps.CellsPerSec},
		{Name: "run.worker_utilization", Kind: obs.KindGauge, Value: ps.Utilization},
		{Name: "run.eta_seconds", Kind: obs.KindGauge, Value: ps.ETA.Seconds()},
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snaps := progressSnapshots(s.progress.Snapshot())
	snaps = append(snaps, s.spans.Snapshot()...)
	s.mu.Lock()
	snaps = append(snaps, s.published...)
	s.mu.Unlock()
	w.Header().Set("Content-Type", prom.ContentType)
	if err := prom.Write(w, snaps); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// statuszBody is the /statusz JSON document.
type statuszBody struct {
	Info              Info         `json:"info"`
	StartTime         time.Time    `json:"start_time"`
	Cells             cellCounts   `json:"cells"`
	Workers           int          `json:"workers"`
	ElapsedSeconds    float64      `json:"elapsed_seconds"`
	BusySeconds       float64      `json:"busy_seconds"`
	CellsPerSecond    float64      `json:"cells_per_second"`
	WorkerUtilization float64      `json:"worker_utilization"`
	ETASeconds        float64      `json:"eta_seconds"`
	Spans             []spanLine   `json:"spans,omitempty"`
	Alerts            []tsdb.Alert `json:"alerts,omitempty"`
}

// handleHealthz answers liveness probes: the server is up and accepting
// requests, nothing more.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

type cellCounts struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

type spanLine struct {
	Name         string  `json:"name"`
	Count        uint64  `json:"count"`
	MeanSeconds  float64 `json:"mean_seconds"`
	TotalSeconds float64 `json:"total_seconds"`
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	ps := s.progress.Snapshot()
	body := statuszBody{
		Info:              s.info,
		StartTime:         s.start,
		Cells:             cellCounts{Done: ps.Done, Total: ps.Total},
		Workers:           ps.Workers,
		ElapsedSeconds:    ps.Elapsed.Seconds(),
		BusySeconds:       ps.Busy.Seconds(),
		CellsPerSecond:    ps.CellsPerSec,
		WorkerUtilization: ps.Utilization,
		ETASeconds:        ps.ETA.Seconds(),
	}
	s.tsMu.Lock()
	body.Alerts = append(body.Alerts, s.alerts...)
	s.tsMu.Unlock()
	for _, snap := range s.spans.Snapshot() {
		body.Spans = append(body.Spans, spanLine{
			Name: snap.Name, Count: snap.Count,
			MeanSeconds: snap.Value, TotalSeconds: snap.Sum,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(body) //nolint:errcheck // best-effort response write
}

// CLI bundles the live-introspection flags shared by the commands (-status,
// -progress) and owns the tracker, server, and stderr reporter behind them.
// Usage mirrors obs.CLI:
//
//	var status statusz.CLI
//	status.RegisterFlags(flag.CommandLine)
//	flag.Parse()
//	if err := status.Start(info, spans); err != nil { ... }
//	defer status.Close()
//	opts.Sinks = sinks.Sinks() // an obs.CLI's
//	opts.Progress = status.Tracker()
//	if status.Addr != "" {
//		opts.Publish = &status // *CLI is an obs.Publisher
//	}
type CLI struct {
	Addr       string // -status
	ProgressOn bool   // -progress

	tracker parallel.Progress
	server  *Server
	stop    chan struct{}
	wg      sync.WaitGroup
}

// RegisterFlags declares the introspection flags on fs.
func (c *CLI) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.Addr, "status", "", "serve /statusz, /metrics, /debug/pprof on this address (e.g. :8080) for the duration of the run")
	fs.BoolVar(&c.ProgressOn, "progress", false, "print a periodic one-line sweep progress/ETA report to stderr")
}

// Enabled reports whether any introspection was requested.
func (c *CLI) Enabled() bool { return c.Addr != "" || c.ProgressOn }

// Tracker returns the progress tracker to hand to run options: non-nil only
// when some consumer (server or reporter) was requested, so untracked runs
// keep their zero-overhead path.
func (c *CLI) Tracker() *parallel.Progress {
	if !c.Enabled() {
		return nil
	}
	return &c.tracker
}

// Start brings up whatever was requested: the HTTP server under -status,
// the stderr reporter under -progress. No-op when neither flag is set.
func (c *CLI) Start(info Info, spans *obs.Spans) error {
	if c.Addr != "" {
		if info.Flags == nil {
			info.Flags = FlagSummary(flag.CommandLine)
		}
		srv, err := Start(c.Addr, info, &c.tracker, spans)
		if err != nil {
			return err
		}
		c.server = srv
		fmt.Fprintf(os.Stderr, "status server listening on http://%s/statusz\n", srv.Addr())
	}
	if c.ProgressOn {
		c.stop = make(chan struct{})
		c.wg.Add(1)
		go c.report()
	}
	return nil
}

// progressEvery is the -progress reporter's period.
const progressEvery = 2 * time.Second

func (c *CLI) report() {
	defer c.wg.Done()
	tick := time.NewTicker(progressEvery)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
			s := c.tracker.Snapshot()
			if s.Total == 0 {
				continue
			}
			fmt.Fprintf(os.Stderr, "progress: %d/%d cells (%.0f%%), %.2f cells/s, util %.0f%%, eta %s\n",
				s.Done, s.Total, 100*float64(s.Done)/float64(s.Total),
				s.CellsPerSec, 100*s.Utilization, s.ETA.Round(time.Second))
		}
	}
}

var _ obs.Publisher = (*CLI)(nil)

// PublishMetrics forwards a snapshot to the server; safe with no server.
func (c *CLI) PublishMetrics(snaps []obs.MetricSnapshot) { c.server.PublishMetrics(snaps) }

// PublishTimeseries forwards a flight-recorder dump to the server; safe
// with no server.
func (c *CLI) PublishTimeseries(dump []tsdb.SeriesData) { c.server.PublishTimeseries(dump) }

// PublishProvenance forwards a cell's decoded provenance events to the
// server's /explain index; safe with no server.
func (c *CLI) PublishProvenance(evs []obs.Event) { c.server.PublishProvenance(evs) }

// Close stops the reporter and gracefully drains the server: in-flight
// /metrics scrapes complete and SSE subscribers get a clean close instead
// of a connection reset. The drain is bounded; a wedged connection is
// hard-closed after the grace period.
func (c *CLI) Close() error {
	if c.stop != nil {
		close(c.stop)
		c.wg.Wait()
		c.stop = nil
	}
	if c.server == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := c.server.Shutdown(ctx); err != nil {
		return c.server.Close()
	}
	return nil
}
