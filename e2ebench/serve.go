package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"jumanji/internal/obs/prom"
	"jumanji/internal/serve"
	"jumanji/internal/stats"
)

// serveClients is the closed loop's client count: each client sends its
// next spec only after it has received the previous one's result. It is
// no more than the host's two cores. serveWorkers is the daemon's
// MaxInFlight, its default.
const serveClients, serveWorkers = 2, 2

// recordRounds is how many rounds of the spec plan have recorded digests.
const recordRounds = 24

// item is one planned submission.
type item struct {
	kind string // "compare" (fresh write), "resubmit" (dedupe read), "fig11"
	spec serve.Spec
}

// roundKinds is each client's submissions in every round, in order. The
// mix follows the session in EXPERIMENTS.md ("Running jumanji-serve"): a
// fresh compare-all spec, sent with the compare defaults, is read back once
// by an identical resubmission from the other client, which dedupe serves
// from the result cache; and each client runs one Fig. 11 (the detailed
// event-driven simulator) per round. The one-to-one ratio of fresh specs to
// resubmissions is that session's; the Fig. 11 share is an assumption, as
// the repository records no real service traffic.
var roundKinds = []string{"compare", "resubmit", "compare", "resubmit", "compare", "resubmit", "fig11"}

// clientLCs are the workloads each client's fresh compare specs study, one
// per compare position: between them the two clients cover the 5 LC apps
// and "mixed" every round, so every round does the same work.
var clientLCs = [serveClients][]string{{"masstree", "xapian", "img-dnn"}, {"silo", "moses", "mixed"}}

// planner builds the seeded submission plan. A round's plan depends only on
// the seed and the round: spec seeds are distinct per (round, client,
// position), and the resubmission after a fresh spec repeats the other
// client's spec at that position in the previous round (in round 0, the
// client's own fresh spec just before it), so it is always served from the
// result cache.
type planner struct{ seed int64 }

// round returns every client's submissions for round r.
func (p planner) round(r int) [][]item {
	out := make([][]item, serveClients)
	for c := range out {
		for pos, kind := range roundKinds {
			it := item{kind: kind}
			switch kind {
			case "compare":
				it.spec = p.compare(r, c, pos)
			case "resubmit":
				if r == 0 {
					it.spec = p.compare(r, c, pos-1)
				} else {
					it.spec = p.compare(r-1, (c+1)%serveClients, pos-1)
				}
			case "fig11":
				it.spec = serve.Spec{Type: "figure", Fig: 11, Seed: specSeed(p.seed, r, c, pos)}
			}
			out[c] = append(out[c], it)
		}
	}
	return out
}

// compare is the fresh compare-all spec at (round, client, position), at
// the compare defaults.
func (p planner) compare(r, c, pos int) serve.Spec {
	return serve.Spec{Type: "compare", Design: "all", LC: clientLCs[c][pos/2],
		Seed: specSeed(p.seed, r, c, pos)}
}

// specSeed derives a distinct, positive spec seed.
func specSeed(seed int64, round, client, pos int) int64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range []int64{seed, int64(round), int64(client), int64(pos)} {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	return int64(h.Sum64()>>33) + 1
}

// recordServeDigests computes the result digest of every spec in the
// first recordRounds rounds by running the registry's runners directly.
func recordServeDigests(seed int64, into map[string]string) error {
	reg := serve.Builtins()
	plan := planner{seed: seed}
	for r := 0; r < recordRounds; r++ {
		for _, items := range plan.round(r) {
			for _, it := range items {
				sp := it.spec
				rn, ok := reg.Lookup(sp.Type)
				if !ok {
					return fmt.Errorf("no experiment type %q", sp.Type)
				}
				if err := rn.Validate(&sp); err != nil {
					return err
				}
				fp := sp.Fingerprint()
				if _, done := into[fp]; done {
					continue
				}
				out, err := rn.Run(context.Background(), &sp, serve.Env{})
				if err != nil {
					return fmt.Errorf("%s: %w", fp, err)
				}
				into[fp] = digest(out)
			}
		}
	}
	return nil
}

// daemon is an in-process jumanji-serve on an ephemeral port.
type daemon struct {
	srv  *serve.Server
	base string
	dir  string
}

// startDaemon starts a daemon over a fresh state directory and waits until
// /healthz answers ok.
func startDaemon(work string) (*daemon, error) {
	dir, err := os.MkdirTemp(work, "serve-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{Addr: "127.0.0.1:0", StateDir: dir, MaxInFlight: serveWorkers})
	if err != nil {
		return nil, err
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	d := &daemon{srv: srv, base: "http://" + srv.Addr(), dir: dir}
	for start := time.Now(); ; {
		resp, err := httpClient.Get(d.base + "/healthz")
		if err == nil {
			body, _ := io.ReadAll(resp.Body) // a short read only delays the retry
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && strings.TrimSpace(string(body)) == "ok" {
				return d, nil
			}
		}
		if time.Since(start) > 10*time.Second {
			d.stop()
			return nil, errors.New("jumanji-serve never answered /healthz")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the daemon (every experiment has finished by then) and
// waits for its goroutines.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return d.srv.Drain(ctx)
}

// stateBytes is the size of everything the daemon persisted.
func (d *daemon) stateBytes() float64 {
	total := int64(0)
	filepath.WalkDir(d.dir, func(_ string, e fs.DirEntry, err error) error { //nolint:errcheck // a vanished file adds nothing
		if err == nil && !e.IsDir() {
			if info, ierr := e.Info(); ierr == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return float64(total)
}

// expRecord is one submission as the client saw it. Times are offsets
// from the POST, in ms; running and terminal are the SSE state frames.
type expRecord struct {
	it                             item
	ok                             bool
	problem                        string
	fp                             string
	deduped                        bool
	body                           []byte
	admitMS, runningMS, terminalMS float64
	latencyMS                      float64
}

var httpClient = &http.Client{Timeout: 2 * time.Minute}

// submit runs one closed-loop step: POST the spec, follow its SSE stream to
// the terminal state frame, then fetch the result body.
func submit(base, client string, it item) (rec expRecord) {
	rec = expRecord{it: it, runningMS: -1, terminalMS: -1}
	sp := it.spec
	sp.Client = client
	body, err := json.Marshal(sp)
	if err != nil {
		rec.problem = err.Error()
		return rec
	}
	t0 := time.Now()
	ms := func() float64 { return float64(time.Since(t0)) / float64(time.Millisecond) }
	defer func() { rec.latencyMS = latencyOrInf(rec.ok, ms()) }()

	resp, err := httpClient.Post(base+"/experiments", "application/json", bytes.NewReader(body))
	if err != nil {
		rec.problem = "submit: " + err.Error()
		return rec
	}
	var ack struct {
		ID          string `json:"id"`
		Fingerprint string `json:"fingerprint"`
		Deduped     bool   `json:"deduped"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&ack)
	resp.Body.Close()
	rec.admitMS = ms()
	if !acceptedStatus(resp.StatusCode) || derr != nil {
		rec.problem = fmt.Sprintf("submit answered %d (%v)", resp.StatusCode, derr)
		return rec
	}
	rec.fp, rec.deduped = ack.Fingerprint, ack.Deduped

	if err := followStream(base+"/experiments/"+ack.ID+"/stream", &rec, ms); err != nil {
		rec.problem = "stream: " + err.Error()
		return rec
	}
	resp, err = httpClient.Get(base + "/experiments/" + ack.ID + "/result")
	if err != nil {
		rec.problem = "result: " + err.Error()
		return rec
	}
	rec.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	state := resp.Header.Get("X-Experiment-State")
	rec.ok = err == nil && experimentOK(resp.StatusCode, state)
	if !rec.ok {
		rec.problem = fmt.Sprintf("result answered %d in state %q (%v)", resp.StatusCode, state, err)
	}
	return rec
}

// followStream reads the experiment's SSE feed until the server closes it
// after the terminal state, noting when "running" and the terminal state
// were first seen (the hello frame carries the state at attach time).
func followStream(url string, rec *expRecord, ms func() float64) error {
	resp, err := httpClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("answered %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var frame struct {
			State string `json:"state"`
		}
		if json.Unmarshal([]byte(data), &frame) != nil {
			continue
		}
		switch frame.State {
		case "running":
			if rec.runningMS < 0 {
				rec.runningMS = ms()
			}
		case "done", "degraded", "failed", "interrupted":
			if rec.terminalMS < 0 {
				rec.terminalMS = ms()
			}
		}
	}
	return sc.Err()
}

// roundResult is one closed-loop round.
type roundResult struct {
	wall, cpu, allocMB float64
	recs               []expRecord
}

// runRound drives one round: every client works through its items, each
// waiting for its previous result, and the round ends when all are done.
func runRound(d *daemon, items [][]item) roundResult {
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0, t0 := cpuSeconds(), time.Now()
	per := make([][]expRecord, len(items))
	var wg sync.WaitGroup
	for c := range items {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, it := range items[c] {
				per[c] = append(per[c], submit(d.base, "client-"+strconv.Itoa(c), it))
			}
		}(c)
	}
	wg.Wait()
	r := roundResult{wall: time.Since(t0).Seconds(), cpu: cpuSeconds() - cpu0}
	runtime.ReadMemStats(&ms1)
	r.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
	for _, recs := range per {
		r.recs = append(r.recs, recs...)
	}
	return r
}

// runServeMix measures the serve-mix workload: rounds until the measuring
// time is spent, then one /metrics scrape. The traced run is the same run:
// the clients timestamp the SSE state frames in every run, and the scrape
// comes after the last round, so tracing costs serve-mix nothing.
func runServeMix(b *bench) error {
	if err := b.timeSetup("serve-mix"); err != nil {
		return err
	}
	d, err := startDaemon(b.work)
	if err != nil {
		return err
	}
	outs := newOutputs(b.digests.Serve)
	plan := planner{seed: b.seed}
	var walls, cpus, allocs, lat []float64
	var all []roundResult
	start := time.Now()
	for r := 0; !b.timeUp(start, walls); r++ {
		rr := runRound(d, plan.round(r))
		all = append(all, rr)
		for _, rec := range rr.recs {
			problem := rec.problem
			if problem == "" {
				if problem = outs.verify(rec.fp, rec.body); problem == "" {
					problem = checkBody(rec.it, rec.body)
				}
			}
			b.check(problem)
			lat = append(lat, rec.latencyMS)
		}
		fmt.Fprintf(b.log, "serve-mix: round %d: wall %.3fs cpu %.3fs alloc %.1fMB\n", r+1, rr.wall, rr.cpu, rr.allocMB)
		walls, cpus, allocs = append(walls, rr.wall), append(cpus, rr.cpu), append(allocs, rr.allocMB)
	}
	counters, err := scrapeCounters(d.base)
	stateBytes := d.stateBytes()
	if serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}

	var speed []float64
	tail := 0.0
	for _, rec := range all[0].recs {
		if rec.it.kind == "compare" && rec.ok {
			s, t, err := jumanjiRow(rec.body)
			if err != nil {
				return err
			}
			speed, tail = append(speed, s), math.Max(tail, t)
		}
	}
	b.set("sim.jumanji_speedup", stats.Gmean(speed))
	b.setUnits(walls, cpus, allocs, lat)
	if !b.trace {
		return nil
	}

	var admit, wait, result []float64
	runMS := map[string][]float64{}
	deduped, exps := 0, 0
	for _, rr := range all {
		for _, rec := range rr.recs {
			exps++
			if !rec.ok {
				continue
			}
			admit = append(admit, rec.admitMS)
			if rec.deduped {
				deduped++
			}
			if rec.runningMS >= 0 && rec.terminalMS >= 0 && !rec.deduped {
				wait = append(wait, rec.runningMS-rec.admitMS)
				runMS[rec.it.kind] = append(runMS[rec.it.kind], rec.terminalMS-rec.runningMS)
			}
			if rec.terminalMS >= 0 {
				result = append(result, rec.latencyMS-rec.terminalMS)
			}
		}
	}
	b.set("trace_overhead_frac", 0)
	b.set("sim.jumanji_tail", tail)
	b.set("serve.admit_ms.p50", median(admit))
	b.set("serve.queue_wait_ms.p50", median(wait))
	b.set("serve.run_ms.p50.compare", median(runMS["compare"]))
	b.set("serve.run_ms.p50.fig11", median(runMS["fig11"]))
	b.set("serve.result_ms.p50", median(result))
	b.set("serve.dedupe_frac", float64(deduped)/float64(exps))
	b.set("serve.retried", counters["serve.retried"])
	b.set("serve.rejected", counters["serve.rejected"])
	b.set("journal.state_bytes", stateBytes)
	return nil
}

// checkBody checks a result body's shape: a compare table has a header and
// one row per design; a Fig. 11 rendering starts with its banner.
func checkBody(it item, body []byte) string {
	switch it.spec.Type {
	case "compare":
		if _, _, err := jumanjiRow(body); err != nil {
			return err.Error()
		}
	case "figure":
		if !bytes.HasPrefix(body, []byte("\n=== Fig. 11 ===")) {
			return "figure 11 result lacks its banner"
		}
	}
	return ""
}

// jumanjiRow parses a compare table and returns Jumanji's speedup vs
// Static and normalized tail.
func jumanjiRow(body []byte) (speedup, tail float64, err error) {
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	if len(lines) != 8 || !strings.HasPrefix(lines[0], "design") {
		return 0, 0, fmt.Errorf("compare table has %d lines, want a header and 7 designs", len(lines))
	}
	for _, l := range lines[1:] {
		if len(l) < 22 || strings.TrimSpace(l[:22]) != "Jumanji" {
			continue
		}
		f := strings.Fields(l[22:])
		if len(f) != 4 {
			return 0, 0, fmt.Errorf("malformed Jumanji row %q", l)
		}
		tail, terr := strconv.ParseFloat(f[0], 64)
		speedup, serr := strconv.ParseFloat(f[1], 64)
		if terr != nil || serr != nil || !(speedup > 0) {
			return 0, 0, fmt.Errorf("malformed Jumanji row %q", l)
		}
		return speedup, tail, nil
	}
	return 0, 0, errors.New("compare table has no Jumanji row")
}

// scrapeCounters reads the serve.* counters from /metrics.
func scrapeCounters(base string) (map[string]float64, error) {
	resp, err := httpClient.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, name := range []string{"serve.retried", "serve.rejected", "serve.deduped", "serve.admitted"} {
		want := prom.Name(name) + "_total"
		for _, l := range strings.Split(string(text), "\n") {
			if f := strings.Fields(l); len(f) == 2 && f[0] == want {
				if v, err := strconv.ParseFloat(f[1], 64); err == nil {
					out[name] = v
				}
			}
		}
	}
	return out, nil
}
