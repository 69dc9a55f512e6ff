package obs

import (
	"bytes"
	"fmt"

	"jumanji/internal/obs/tsdb"
	"jumanji/internal/parallel"
)

// Sinks is a run's whole observability bundle, the one field every layer
// carries (jumanji.Options, harness.Options, system.Config embed it). The
// zero value disables everything at the cost of a nil check per update.
//
// The five recording sinks (Metrics through Prov) are single-goroutine, so
// a fan-out never hands them to concurrent runs: each cell records into
// private mirrors (NewCell) that Merge folds back in cell order. Spans,
// Progress and Publish are safe to share, so cells get them as-is. Adding a
// sink means adding its field here, extending NewCell, Cell.MergeInto,
// Cell.State and CellFromState, and writing its producer.
type Sinks struct {
	Metrics *Registry // counters, gauges, histograms
	Events  *EventLog // the JSONL epoch decision log
	// Trace gets one lane per run, so runs sharing it render stacked.
	Trace *Trace
	// TS is the flight recorder (internal/obs/tsdb): with Metrics also
	// set, each run samples its registry into TS once per epoch.
	TS *tsdb.DB
	// Prov is the placement-provenance log (schema v3). Nil skips all
	// record building: zero allocations, byte-identical placements
	// (TestAllocGuardProvenance).
	Prov *EventLog
	// Spans times simulator phases on the wall clock.
	Spans *Spans
	// Progress counts completed cells for live readers; it never affects
	// results.
	Progress *parallel.Progress
	// Publish, when set, receives the merged sinks after every fan-out's
	// merge, when no worker holds them: how live endpoints observe the
	// single-goroutine sinks safely.
	Publish Publisher
}

// Publisher receives copies of the merged sinks at each merge point, on the
// coordinating goroutine, as immutable plain data. *statusz.CLI implements
// it.
type Publisher interface {
	PublishMetrics([]MetricSnapshot)
	PublishTimeseries([]tsdb.SeriesData)
	// PublishProvenance receives one cell's decoded provenance records,
	// cell by cell in index order.
	PublishProvenance([]Event)
}

// Fingerprint names which recording sinks are enabled, the part of a
// journal fingerprint that makes a resume under a different sink set
// refuse the journal.
func (s Sinks) Fingerprint() string {
	return fmt.Sprintf("metrics=%t|events=%t|trace=%t|tsdb=%t|prov=%t",
		s.Metrics != nil, s.Events != nil, s.Trace != nil, s.TS != nil, s.Prov != nil)
}

// Cell is one worker cell's private set of observability sinks, mirroring
// which of the run's recording sinks are enabled. Merging cells back in
// cell-index order is deterministic — counters add, event logs renumber
// their sequence, trace lanes remap to the next free pids, time series
// append in registration order — so the merged output is byte-for-byte
// what a serial run would have produced.
type Cell struct {
	// Sinks holds the cell's private recording sinks (nil where the run's
	// is nil) and the run's own Spans, Progress and Publish.
	Sinks

	eventsBuf *bytes.Buffer
	provBuf   *bytes.Buffer
}

// NewCell returns a cell whose recording sinks privately mirror the enabled
// ones among s. The cell's EventLogs write into in-memory buffers replayed
// at merge time, its Trace accumulates events for lane-remapped merging and
// is never Closed, and its TS keeps s.TS's per-series capacity.
func (s Sinks) NewCell() *Cell {
	c := &Cell{Sinks: Sinks{Spans: s.Spans, Progress: s.Progress, Publish: s.Publish}}
	if s.Metrics != nil {
		c.Metrics = NewRegistry()
	}
	if s.Events != nil {
		c.eventsBuf = &bytes.Buffer{}
		c.Events = NewEventLog(c.eventsBuf)
	}
	if s.Trace != nil {
		c.Trace = NewTrace(nil)
	}
	if s.TS != nil {
		c.TS = tsdb.New(s.TS.Cap())
	}
	if s.Prov != nil {
		c.provBuf = &bytes.Buffer{}
		c.Prov = NewEventLog(c.provBuf)
	}
	return c
}

// MergeInto folds the cell's recording sinks into the given ones. Callers
// merge cells in index order exactly once; the first event-log error (from
// this or an earlier append) is returned, matching EventLog's
// poison-on-error convention.
func (c *Cell) MergeInto(metrics *Registry, events *EventLog, trace *Trace, ts *tsdb.DB, prov *EventLog) error {
	if c == nil {
		return nil
	}
	metrics.Merge(c.Metrics)
	trace.Merge(c.Trace)
	ts.Merge(c.TS)
	if c.provBuf != nil {
		if err := prov.AppendJSONL(c.provBuf.Bytes()); err != nil {
			return err
		}
	}
	if c.eventsBuf != nil {
		return events.AppendJSONL(c.eventsBuf.Bytes())
	}
	return nil
}

// Merge folds cells into s in cell-index order (nil cells, e.g. failed
// ones, are skipped), then publishes: each cell's decoded provenance in
// cell order, then the merged metrics and time series. It runs on the
// coordinating goroutine once per fan-out.
func (s Sinks) Merge(cells []*Cell) error {
	for _, c := range cells {
		if err := c.MergeInto(s.Metrics, s.Events, s.Trace, s.TS, s.Prov); err != nil {
			return fmt.Errorf("obs: merging cell sinks: %w", err)
		}
		if s.Publish != nil && c != nil && c.provBuf != nil && c.provBuf.Len() > 0 {
			evs, err := DecodeEventLog(c.provBuf.Bytes())
			if err != nil {
				return fmt.Errorf("obs: decoding cell provenance: %w", err)
			}
			s.Publish.PublishProvenance(evs)
		}
	}
	if s.Publish != nil {
		s.Publish.PublishMetrics(s.Metrics.Snapshot())
		s.Publish.PublishTimeseries(s.TS.Dump())
	}
	return nil
}
