package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"jumanji/internal/journal"
	"jumanji/internal/obs"
	"jumanji/internal/obs/tsdb"
)

// inputs is everything the report can be assembled from; every field is
// optional and the corresponding sections are simply omitted.
type inputs struct {
	Events  []obs.Event
	TS      []tsdb.SeriesData
	Journal *journal.Log
	Spans   []traceSpan
	// Prov carries the provenance log pre-aggregated: the file streams
	// through obs.DecodeEvents at load time (provenance logs can dwarf the
	// decision log), so only the bounded aggregate reaches buildReport.
	Prov *provAgg

	EventsName, TSName, JournalName, TraceName, ProvName string
}

// traceSpan is one complete ("ph":"X") event from a Chrome trace file.
type traceSpan struct {
	Name  string
	Cat   string
	DurUs float64
}

// loadInputs reads whichever artifact paths are non-empty.
func loadInputs(eventsPath, tsdbPath, journalPath, tracePath, provPath string) (inputs, error) {
	var in inputs
	if provPath != "" {
		f, err := os.Open(provPath)
		if err != nil {
			return in, err
		}
		agg := &provAgg{}
		err = obs.DecodeEvents(f, agg.add)
		f.Close()
		if err != nil {
			return in, fmt.Errorf("%s: %w", provPath, err)
		}
		in.Prov, in.ProvName = agg, filepath.Base(provPath)
	}
	if eventsPath != "" {
		data, err := os.ReadFile(eventsPath)
		if err != nil {
			return in, err
		}
		evs, err := obs.DecodeEventLog(data)
		if err != nil {
			return in, fmt.Errorf("%s: %w", eventsPath, err)
		}
		in.Events, in.EventsName = evs, filepath.Base(eventsPath)
	}
	if tsdbPath != "" {
		f, err := os.Open(tsdbPath)
		if err != nil {
			return in, err
		}
		db, err := tsdb.Read(f)
		f.Close()
		if err != nil {
			return in, fmt.Errorf("%s: %w", tsdbPath, err)
		}
		in.TS, in.TSName = db.Dump(), filepath.Base(tsdbPath)
	}
	if journalPath != "" {
		log, err := journal.Load(journalPath)
		if err != nil {
			return in, err
		}
		in.Journal, in.JournalName = log, filepath.Base(journalPath)
	}
	if tracePath != "" {
		data, err := os.ReadFile(tracePath)
		if err != nil {
			return in, err
		}
		spans, err := decodeTraceSpans(data)
		if err != nil {
			return in, fmt.Errorf("%s: %w", tracePath, err)
		}
		in.Spans, in.TraceName = spans, filepath.Base(tracePath)
	}
	return in, nil
}

func decodeTraceSpans(data []byte) ([]traceSpan, error) {
	var f struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("not a valid trace file: %w", err)
	}
	var out []traceSpan
	for _, e := range f.TraceEvents {
		if e.Ph == "X" {
			out = append(out, traceSpan{Name: e.Name, Cat: e.Cat, DurUs: e.Dur})
		}
	}
	return out, nil
}

// report is the assembled document both renderers consume.
type report struct {
	Title  string
	Inputs []inputLine

	Runs          []runSummary
	Churn         []churnRow
	TopViolations []violationRow
	Alerts        []tsdb.Alert
	Series        []seriesRow
	Spans         []spanRow
	Journal       []journalRow

	// Placement provenance (from -provenance; see provenance.go).
	ProvVMs    []provVMRow
	ProvBanks  []provBankRow
	ProvMoves  []provMoveRow
	ProvValves []provValveRow
}

type inputLine struct {
	Kind, Name, Summary string
}

// runSummary is one run_start..run_end block of the event log.
type runSummary struct {
	Design          string
	Epochs, Warmup  int
	Apps, LatCrit   int
	Reconfigs       int
	ViolationEpochs int       // epochs with WorstLatNorm > 1
	WorstLatNorm    float64   // max over epochs
	Timeline        []float64 // WorstLatNorm per observed epoch, in order
	// Closing summary (zero when the run_end record is missing).
	WorstNormTail float64
	BatchSpeedup  float64
	Vulnerability float64
	EnergyNJ      float64
}

// churnRow aggregates one design's reconfig_churn records.
type churnRow struct {
	Design         string
	Reconfigs      int
	ByCause        map[string]int
	MeanMoved      float64
	MaxMoved       float64
	MovedMB        float64
	Invalidated    float64
	MaxMovedEpoch  int
	MaxMovedTimeUs float64
}

type violationRow struct {
	obs.SLOViolation
}

type seriesRow struct {
	Name           string
	Samples        int
	Dropped        uint64
	Min, Mean, Max float64
	Last           float64
	Timeline       []float64 // newest window for the sparkline
}

type spanRow struct {
	Name    string
	Count   int
	TotalMs float64
	MeanMs  float64
	Share   float64 // of total span time
}

type journalRow struct {
	Label string
	Cells int
	Bytes int
}

// buildReport assembles the document. It is a pure function of its inputs:
// no clocks, no randomness, maps iterated in sorted order.
func buildReport(title string, topK int, in inputs) (*report, error) {
	rep := &report{Title: title}

	if in.EventsName != "" {
		rep.Inputs = append(rep.Inputs, inputLine{"events", in.EventsName, fmt.Sprintf("%d records", len(in.Events))})
	}
	if in.TSName != "" {
		n := 0
		for _, sd := range in.TS {
			n += len(sd.Samples)
		}
		rep.Inputs = append(rep.Inputs, inputLine{"tsdb", in.TSName, fmt.Sprintf("%d series, %d samples", len(in.TS), n)})
	}
	if in.JournalName != "" {
		rep.Inputs = append(rep.Inputs, inputLine{"journal", in.JournalName, fmt.Sprintf("%d cells", in.Journal.Len())})
	}
	if in.TraceName != "" {
		rep.Inputs = append(rep.Inputs, inputLine{"trace", in.TraceName, fmt.Sprintf("%d spans", len(in.Spans))})
	}
	if in.ProvName != "" {
		rep.Inputs = append(rep.Inputs, inputLine{"provenance", in.ProvName,
			fmt.Sprintf("%d decisions, %d valves", in.Prov.Records, in.Prov.Valves)})
	}

	if err := buildFromEvents(rep, in.Events, topK); err != nil {
		return nil, err
	}
	buildSeries(rep, in.TS)
	buildSpans(rep, in.Spans)
	buildJournal(rep, in.Journal)
	buildProvenance(rep, in.Prov, topK)
	return rep, nil
}

// buildFromEvents walks the log once: run_start opens a run, epoch and
// churn records land on the current run, slo_violation records accumulate
// globally (they carry their own design), run_end closes the run.
func buildFromEvents(rep *report, events []obs.Event, topK int) error {
	churn := make(map[string]*churnRow)
	var churnOrder []string
	var cur *runSummary
	var violations []violationRow

	for _, ev := range events {
		switch ev.Type {
		case obs.TypeRunStart:
			var rs obs.RunStart
			if err := json.Unmarshal(ev.Data, &rs); err != nil {
				return fmt.Errorf("run_start seq %d: %w", ev.Seq, err)
			}
			rep.Runs = append(rep.Runs, runSummary{Design: rs.Design, Epochs: rs.Epochs, Warmup: rs.Warmup, Apps: len(rs.Apps)})
			cur = &rep.Runs[len(rep.Runs)-1]
			for _, a := range rs.Apps {
				if a.LatencyCritical {
					cur.LatCrit++
				}
			}
		case obs.TypeEpoch:
			if cur == nil {
				continue // a truncated log; epochs before any run_start are unattributable
			}
			var e obs.Epoch
			if err := json.Unmarshal(ev.Data, &e); err != nil {
				return fmt.Errorf("epoch seq %d: %w", ev.Seq, err)
			}
			cur.Timeline = append(cur.Timeline, e.WorstLatNorm)
			if e.Reconfigured {
				cur.Reconfigs++
			}
			if e.WorstLatNorm > 1 {
				cur.ViolationEpochs++
			}
			if e.WorstLatNorm > cur.WorstLatNorm {
				cur.WorstLatNorm = e.WorstLatNorm
			}
		case obs.TypeReconfigChurn:
			if cur == nil {
				continue
			}
			var c obs.ReconfigChurn
			if err := json.Unmarshal(ev.Data, &c); err != nil {
				return fmt.Errorf("reconfig_churn seq %d: %w", ev.Seq, err)
			}
			row := churn[cur.Design]
			if row == nil {
				row = &churnRow{Design: cur.Design, ByCause: make(map[string]int), MaxMovedEpoch: -1}
				churn[cur.Design] = row
				churnOrder = append(churnOrder, cur.Design)
			}
			row.Reconfigs++
			row.ByCause[c.Cause]++
			row.MeanMoved += c.MaxMovedFraction
			if c.MaxMovedFraction > row.MaxMoved || row.MaxMovedEpoch < 0 {
				row.MaxMoved, row.MaxMovedEpoch, row.MaxMovedTimeUs = c.MaxMovedFraction, c.Epoch, c.TimeUs
			}
			row.MovedMB += c.MovedBytes / (1 << 20)
			row.Invalidated += c.InvalidatedLines
		case obs.TypeSLOViolation:
			var v obs.SLOViolation
			if err := json.Unmarshal(ev.Data, &v); err != nil {
				return fmt.Errorf("slo_violation seq %d: %w", ev.Seq, err)
			}
			violations = append(violations, violationRow{v})
		case obs.TypeRunEnd:
			if cur == nil {
				continue
			}
			var re obs.RunEnd
			if err := json.Unmarshal(ev.Data, &re); err != nil {
				return fmt.Errorf("run_end seq %d: %w", ev.Seq, err)
			}
			cur.WorstNormTail, cur.BatchSpeedup = re.WorstNormTail, re.BatchWeightedSpeedup
			cur.Vulnerability, cur.EnergyNJ = re.Vulnerability, re.EnergyNJ
			cur = nil
		}
	}

	for _, design := range churnOrder {
		row := churn[design]
		row.MeanMoved /= float64(row.Reconfigs)
		rep.Churn = append(rep.Churn, *row)
	}

	// Worst violations first; ties broken by design, epoch, then app so the
	// order (and the report bytes) never depend on sort internals.
	sort.SliceStable(violations, func(i, j int) bool {
		a, b := violations[i], violations[j]
		if a.LatNorm != b.LatNorm {
			return a.LatNorm > b.LatNorm
		}
		if a.Design != b.Design {
			return a.Design < b.Design
		}
		if a.Epoch != b.Epoch {
			return a.Epoch < b.Epoch
		}
		return a.App < b.App
	})
	if topK >= 0 && len(violations) > topK {
		violations = violations[:topK]
	}
	rep.TopViolations = violations
	return nil
}

// sparkWindow bounds sparkline length; longer series show their newest end.
const sparkWindow = 60

// mean returns the mean of samples, whose sum is sum and extremes lo and hi.
// sum/n is exact enough and keeps ordinary reports' digits; only when the
// sum overflows (finite samples near ±MaxFloat64) is the mean taken as
// Σ(x/n), clamped to [lo, hi] against rounding.
func mean(samples []tsdb.Sample, sum, lo, hi float64) float64 {
	n := float64(len(samples))
	if !math.IsInf(sum, 0) {
		return sum / n
	}
	m := 0.0
	for _, s := range samples {
		m += s.Value / n
	}
	return math.Max(lo, math.Min(hi, m))
}

func buildSeries(rep *report, dump []tsdb.SeriesData) {
	if len(dump) == 0 {
		return
	}
	for _, sd := range dump {
		row := seriesRow{Name: sd.Name, Samples: len(sd.Samples), Dropped: sd.Start}
		if len(sd.Samples) > 0 {
			row.Min, row.Max = math.Inf(1), math.Inf(-1)
			sum := 0.0
			for _, s := range sd.Samples {
				row.Min = math.Min(row.Min, s.Value)
				row.Max = math.Max(row.Max, s.Value)
				sum += s.Value
			}
			row.Mean = mean(sd.Samples, sum, row.Min, row.Max)
			row.Last = sd.Samples[len(sd.Samples)-1].Value
			start := 0
			if len(sd.Samples) > sparkWindow {
				start = len(sd.Samples) - sparkWindow
			}
			for _, s := range sd.Samples[start:] {
				row.Timeline = append(row.Timeline, s.Value)
			}
		}
		rep.Series = append(rep.Series, row)
	}
	// Replay the online anomaly rules over the recorded series: the report
	// shows exactly what /statusz would have alerted on, from the data.
	det := &tsdb.Detector{}
	rep.Alerts = det.Scan(dump)
}

func buildSpans(rep *report, spans []traceSpan) {
	if len(spans) == 0 {
		return
	}
	agg := make(map[string]*spanRow)
	total := 0.0
	for _, s := range spans {
		row := agg[s.Name]
		if row == nil {
			row = &spanRow{Name: s.Name}
			agg[s.Name] = row
		}
		row.Count++
		row.TotalMs += s.DurUs / 1e3
		total += s.DurUs / 1e3
	}
	names := make([]string, 0, len(agg))
	for name := range agg {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if agg[names[i]].TotalMs != agg[names[j]].TotalMs {
			return agg[names[i]].TotalMs > agg[names[j]].TotalMs
		}
		return names[i] < names[j]
	})
	for _, name := range names {
		row := agg[name]
		row.MeanMs = row.TotalMs / float64(row.Count)
		if total > 0 {
			row.Share = row.TotalMs / total
		}
		rep.Spans = append(rep.Spans, *row)
	}
}

func buildJournal(rep *report, log *journal.Log) {
	if log == nil {
		return
	}
	agg := make(map[string]*journalRow)
	var order []string
	for _, k := range log.Keys() {
		row := agg[k.Label]
		if row == nil {
			row = &journalRow{Label: k.Label}
			agg[k.Label] = row
			order = append(order, k.Label)
		}
		row.Cells++
		if p, ok := log.Get(k.Label, k.Cell, k.Seed); ok {
			row.Bytes += len(p)
		}
	}
	for _, label := range order {
		rep.Journal = append(rep.Journal, *agg[label])
	}
}
