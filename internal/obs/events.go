package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// SchemaVersion is stamped into every decision-log record as "v". Bump it
// whenever a payload struct changes incompatibly; ValidateEvent rejects
// records from other versions.
//
// v2: epoch records gained a monotonic simulated timestamp (time_us) and
// worst_lat_norm, and the slo_violation and reconfig_churn attribution
// records were added.
//
// v3: the placement provenance records were added (placement_decision and
// placement_valve, see provenance.go) — the per-VM/app "why did this land
// here" rationale the provenance sink (-provenance) emits.
const SchemaVersion = 3

// Event types, one per payload struct. Every JSONL record is an envelope
//
//	{"v":3, "seq":N, "type":"<type>", "data":{...}}
//
// where data's shape is fixed by the type (see the payload structs below
// and the "Observability" section of README.md).
const (
	TypeRunStart          = "run_start"
	TypeEpoch             = "epoch"
	TypeSLOViolation      = "slo_violation"
	TypeReconfigChurn     = "reconfig_churn"
	TypeRunEnd            = "run_end"
	TypePlacementDecision = "placement_decision"
	TypePlacementValve    = "placement_valve"
)

// AppInfo describes one application in a run_start record.
type AppInfo struct {
	App             int     `json:"app"`
	Name            string  `json:"name"`
	VM              int     `json:"vm"`
	Core            int     `json:"core"`
	LatencyCritical bool    `json:"lat_crit"`
	DeadlineCycles  float64 `json:"deadline_cycles,omitempty"`
}

// RunStart opens a run's records: design, protocol, machine, applications.
type RunStart struct {
	Design    string    `json:"design"`
	Epochs    int       `json:"epochs"`
	Warmup    int       `json:"warmup"`
	Banks     int       `json:"banks"`
	BankBytes float64   `json:"bank_bytes"`
	Apps      []AppInfo `json:"apps"`
}

// ControllerAction is one latency-critical application's feedback decision
// at a reconfiguration: the new allocation target, its delta against the
// previous reconfiguration, and the classified action. LatNorm is the
// epoch's mean request latency divided by the deadline (the Fig. 4 signal);
// DeadlineViolated flags LatNorm > 1.
type ControllerAction struct {
	App              int     `json:"app"`
	Name             string  `json:"name"`
	AllocBytes       float64 `json:"alloc_bytes"`
	DeltaBytes       float64 `json:"delta_bytes"`
	Action           string  `json:"action"` // grow | shrink | hold | panic | fixed
	LatNorm          float64 `json:"lat_norm,omitempty"`
	DeadlineViolated bool    `json:"deadline_violated,omitempty"`
}

// PlacementChange is one application's placement at a reconfiguration:
// how many banks it spans, its total capacity, and the fraction of its
// cached data the change invalidated (the Sec. IV-A coherence walk).
type PlacementChange struct {
	App           int     `json:"app"`
	Name          string  `json:"name"`
	Banks         int     `json:"banks"`
	TotalBytes    float64 `json:"total_bytes"`
	MovedFraction float64 `json:"moved_fraction"`
}

// Epoch is one analytic-model epoch's decisions and observables. Actions
// and Placement are present only on epochs where the placer ran. TimeUs
// is the epoch's start on the run's simulated clock in microseconds
// (epoch × EpochSeconds) — monotonic within a run and deterministic, so
// reports can align epoch records with trace timelines without host
// wall-clock leaking into the log. WorstLatNorm is the epoch's worst
// latency-critical mean latency over its deadline (0 with no samples).
type Epoch struct {
	Epoch         int                `json:"epoch"`
	TimeUs        float64            `json:"time_us"`
	Reconfigured  bool               `json:"reconfigured"`
	Actions       []ControllerAction `json:"actions,omitempty"`
	Placement     []PlacementChange  `json:"placement,omitempty"`
	Vulnerability float64            `json:"vulnerability"`
	WorstLatNorm  float64            `json:"worst_lat_norm"`
}

// LatencyBreakdown splits one application's mean request latency into the
// model's additive components, all in core cycles per request: the
// out-of-cache base cost, LLC bank access, NoC traversal to the
// placement's banks, main-memory misses, and (for latency-critical
// applications) time spent queued behind other requests.
type LatencyBreakdown struct {
	BaseCycles  float64 `json:"base_cycles"`
	BankCycles  float64 `json:"bank_cycles"`
	NoCCycles   float64 `json:"noc_cycles"`
	MemCycles   float64 `json:"mem_cycles"`
	QueueCycles float64 `json:"queue_cycles"`
}

// SLOViolation attributes one latency-critical application's blown
// deadline in one epoch: how far over (LatNorm, negative SlackCycles),
// what the allocation was, and which latency component dominated —
// the "why" behind a point on the SLO timeline. Dominant names the
// largest memory-system component (bank | noc | mem | queue); the base
// CPI is reported but never dominates, since no cache design can
// reclaim it.
type SLOViolation struct {
	Epoch       int              `json:"epoch"`
	TimeUs      float64          `json:"time_us"`
	App         int              `json:"app"`
	Name        string           `json:"name"`
	Design      string           `json:"design"`
	LatNorm     float64          `json:"lat_norm"`
	SlackCycles float64          `json:"slack_cycles"`
	AllocBytes  float64          `json:"alloc_bytes"`
	Breakdown   LatencyBreakdown `json:"breakdown"`
	Dominant    string           `json:"dominant"` // bank | noc | mem | queue
}

// ReconfigChurn summarizes one reconfiguration's data movement: the worst
// per-app moved fraction, the total bytes whose bank home changed (and
// the cache lines the Sec. IV-A coherence walk invalidated for them), how
// many applications moved at all, and why the placer ran.
type ReconfigChurn struct {
	Epoch            int     `json:"epoch"`
	TimeUs           float64 `json:"time_us"`
	Cause            string  `json:"cause"` // initial | periodic | delayed
	MaxMovedFraction float64 `json:"max_moved_fraction"`
	MovedBytes       float64 `json:"moved_bytes"`
	InvalidatedLines float64 `json:"invalidated_lines"`
	AppsMoved        int     `json:"apps_moved"`
}

// RunEnd closes a run's records with its headline summary.
type RunEnd struct {
	Design               string  `json:"design"`
	WorstNormTail        float64 `json:"worst_norm_tail"`
	BatchWeightedSpeedup float64 `json:"batch_weighted_speedup"`
	Vulnerability        float64 `json:"vulnerability"`
	EnergyNJ             float64 `json:"energy_nj,omitempty"`
}

// EventLog writes the structured decision log as JSONL, one envelope per
// line. A nil *EventLog drops everything; the emitting code needs no
// enabled-checks beyond skipping expensive payload assembly.
type EventLog struct {
	enc *json.Encoder
	seq uint64
	err error
}

// NewEventLog returns a log writing to w.
func NewEventLog(w io.Writer) *EventLog {
	return &EventLog{enc: json.NewEncoder(w)}
}

// Enabled reports whether emitted records go anywhere. Callers use it to
// skip assembling payloads for a disabled log.
func (l *EventLog) Enabled() bool { return l != nil }

// Err returns the first write error, if any. Writes after an error are
// dropped.
func (l *EventLog) Err() error {
	if l == nil {
		return nil
	}
	return l.err
}

type envelope struct {
	V    int             `json:"v"`
	Seq  uint64          `json:"seq"`
	Type string          `json:"type"`
	Data json.RawMessage `json:"data"`
}

func (l *EventLog) emit(typ string, data any) {
	if l == nil || l.err != nil {
		return
	}
	raw, err := json.Marshal(data)
	if err != nil {
		l.err = err
		return
	}
	l.seq++
	if err := l.enc.Encode(envelope{V: SchemaVersion, Seq: l.seq, Type: typ, Data: raw}); err != nil {
		l.err = err
	}
}

// AppendJSONL replays a JSONL log emitted by another EventLog into l,
// renumbering each record's seq to continue l's sequence. The parallel
// experiment engine points each worker cell's EventLog at a private buffer
// and appends the buffers here in cell order, which reproduces the exact
// bytes a serial run would have written (payloads are carried as raw JSON,
// so nothing is re-marshalled). Appending to a nil log is a no-op; a
// malformed or wrong-version line poisons the log like a write error.
func (l *EventLog) AppendJSONL(data []byte) error {
	if l == nil || l.err != nil {
		return l.Err()
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var env envelope
		if err := json.Unmarshal(line, &env); err != nil {
			l.err = fmt.Errorf("obs: appending event log: %w", err)
			return l.err
		}
		if env.V != SchemaVersion {
			l.err = fmt.Errorf("obs: appending event log: schema version %d, want %d", env.V, SchemaVersion)
			return l.err
		}
		l.seq++
		env.Seq = l.seq
		if err := l.enc.Encode(env); err != nil {
			l.err = err
			return l.err
		}
	}
	return nil
}

// EmitRunStart writes a run_start record.
func (l *EventLog) EmitRunStart(r RunStart) { l.emit(TypeRunStart, r) }

// EmitEpoch writes an epoch record.
func (l *EventLog) EmitEpoch(e Epoch) { l.emit(TypeEpoch, e) }

// EmitSLOViolation writes a slo_violation record.
func (l *EventLog) EmitSLOViolation(v SLOViolation) { l.emit(TypeSLOViolation, v) }

// EmitReconfigChurn writes a reconfig_churn record.
func (l *EventLog) EmitReconfigChurn(c ReconfigChurn) { l.emit(TypeReconfigChurn, c) }

// EmitRunEnd writes a run_end record.
func (l *EventLog) EmitRunEnd(r RunEnd) { l.emit(TypeRunEnd, r) }

// ValidateEvent checks one JSONL line against the documented schema and
// returns the record's type. It rejects unknown envelope or payload fields
// (strict decoding), wrong schema versions, unknown types, and records
// violating basic semantic invariants. Tests run every emitted line
// through it, so the documented schema and the emitted bytes cannot drift
// apart silently.
func ValidateEvent(line []byte) (string, error) {
	var env envelope
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&env); err != nil {
		return "", fmt.Errorf("obs: bad envelope: %w", err)
	}
	if env.V != SchemaVersion {
		return "", fmt.Errorf("obs: schema version %d, want %d", env.V, SchemaVersion)
	}
	if env.Seq == 0 {
		return "", fmt.Errorf("obs: missing or zero seq")
	}
	strict := func(into any) error {
		d := json.NewDecoder(bytes.NewReader(env.Data))
		d.DisallowUnknownFields()
		return d.Decode(into)
	}
	switch env.Type {
	case TypeRunStart:
		var r RunStart
		if err := strict(&r); err != nil {
			return env.Type, fmt.Errorf("obs: bad run_start: %w", err)
		}
		if r.Design == "" || r.Epochs <= 0 || r.Banks <= 0 || len(r.Apps) == 0 {
			return env.Type, fmt.Errorf("obs: run_start missing design/epochs/banks/apps: %+v", r)
		}
	case TypeEpoch:
		var e Epoch
		if err := strict(&e); err != nil {
			return env.Type, fmt.Errorf("obs: bad epoch: %w", err)
		}
		if e.Epoch < 0 {
			return env.Type, fmt.Errorf("obs: negative epoch %d", e.Epoch)
		}
		if e.TimeUs < 0 || e.TimeUs != e.TimeUs {
			return env.Type, fmt.Errorf("obs: epoch %d has invalid time_us %v", e.Epoch, e.TimeUs)
		}
		if !e.Reconfigured && (len(e.Actions) > 0 || len(e.Placement) > 0) {
			return env.Type, fmt.Errorf("obs: epoch %d has decisions without a reconfiguration", e.Epoch)
		}
		for _, a := range e.Actions {
			switch a.Action {
			case "grow", "shrink", "hold", "panic", "fixed":
			default:
				return env.Type, fmt.Errorf("obs: epoch %d app %d has unknown action %q", e.Epoch, a.App, a.Action)
			}
		}
	case TypeSLOViolation:
		var v SLOViolation
		if err := strict(&v); err != nil {
			return env.Type, fmt.Errorf("obs: bad slo_violation: %w", err)
		}
		if v.Epoch < 0 || v.TimeUs < 0 || v.Name == "" || v.Design == "" {
			return env.Type, fmt.Errorf("obs: slo_violation malformed: %+v", v)
		}
		if !(v.LatNorm > 1) {
			return env.Type, fmt.Errorf("obs: slo_violation epoch %d app %d with lat_norm %v not over deadline", v.Epoch, v.App, v.LatNorm)
		}
		switch v.Dominant {
		case "bank", "noc", "mem", "queue":
		default:
			return env.Type, fmt.Errorf("obs: slo_violation epoch %d app %d has unknown dominant component %q", v.Epoch, v.App, v.Dominant)
		}
	case TypeReconfigChurn:
		var c ReconfigChurn
		if err := strict(&c); err != nil {
			return env.Type, fmt.Errorf("obs: bad reconfig_churn: %w", err)
		}
		if c.Epoch < 0 || c.TimeUs < 0 || c.MaxMovedFraction < 0 || c.MaxMovedFraction > 1 ||
			c.MovedBytes < 0 || c.InvalidatedLines < 0 || c.AppsMoved < 0 {
			return env.Type, fmt.Errorf("obs: reconfig_churn malformed: %+v", c)
		}
		switch c.Cause {
		case "initial", "periodic", "delayed":
		default:
			return env.Type, fmt.Errorf("obs: reconfig_churn epoch %d has unknown cause %q", c.Epoch, c.Cause)
		}
	case TypeRunEnd:
		var r RunEnd
		if err := strict(&r); err != nil {
			return env.Type, fmt.Errorf("obs: bad run_end: %w", err)
		}
		if r.Design == "" {
			return env.Type, fmt.Errorf("obs: run_end missing design")
		}
	case TypePlacementDecision:
		var d PlacementDecision
		if err := strict(&d); err != nil {
			return env.Type, fmt.Errorf("obs: bad placement_decision: %w", err)
		}
		if d.Epoch < 0 || d.Design == "" || d.VM < 0 || d.App < -1 || d.Truncated < 0 {
			return env.Type, fmt.Errorf("obs: placement_decision malformed: %+v", d)
		}
		if !knownProvStage(d.Stage) {
			return env.Type, fmt.Errorf("obs: placement_decision epoch %d vm %d has unknown stage %q", d.Epoch, d.VM, d.Stage)
		}
		for _, c := range d.Candidates {
			if c.Bank < 0 || c.Dist < 0 {
				return env.Type, fmt.Errorf("obs: placement_decision epoch %d vm %d has malformed candidate %+v", d.Epoch, d.VM, c)
			}
			if c.Eliminated == "" && c.TakenBytes <= 0 {
				return env.Type, fmt.Errorf("obs: placement_decision epoch %d vm %d candidate bank %d neither taken nor eliminated", d.Epoch, d.VM, c.Bank)
			}
			if c.Eliminated != "" && !knownElimReason(c.Eliminated) {
				return env.Type, fmt.Errorf("obs: placement_decision epoch %d vm %d has unknown elimination reason %q", d.Epoch, d.VM, c.Eliminated)
			}
		}
	case TypePlacementValve:
		var v PlacementValve
		if err := strict(&v); err != nil {
			return env.Type, fmt.Errorf("obs: bad placement_valve: %w", err)
		}
		if v.Epoch < 0 || v.Design == "" || v.VM < -1 || v.Attempt < 0 {
			return env.Type, fmt.Errorf("obs: placement_valve malformed: %+v", v)
		}
		if !knownProvValve(v.Valve) {
			return env.Type, fmt.Errorf("obs: placement_valve epoch %d has unknown valve %q", v.Epoch, v.Valve)
		}
	default:
		return env.Type, fmt.Errorf("obs: unknown event type %q", env.Type)
	}
	return env.Type, nil
}

// ValidateEventLog runs ValidateEvent over every line of a JSONL log and
// returns the count of records per type. Blank lines are skipped.
func ValidateEventLog(data []byte) (map[string]int, error) {
	counts := make(map[string]int)
	for i, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		typ, err := ValidateEvent(line)
		if err != nil {
			return counts, fmt.Errorf("line %d: %w", i+1, err)
		}
		counts[typ]++
	}
	return counts, nil
}

// Event is one decoded event-log record: the envelope's sequence number
// and type, with the payload left raw for the consumer to unmarshal into
// the matching struct (RunStart, Epoch, SLOViolation, ...).
type Event struct {
	Seq  uint64
	Type string
	Data json.RawMessage
}

// DecodeEvents streams a JSONL event log record-at-a-time, calling fn for
// every decoded envelope. Unlike DecodeEventLog it never materializes the
// whole log, so cmd/report can walk multi-GB event files in constant
// memory. Each Event's Data aliases a per-line buffer that is NOT reused,
// so fn may retain it. It rejects unknown schema versions and malformed
// lines but does not re-validate payloads; run ValidateEventLog first when
// provenance is untrusted. A non-nil error from fn aborts the walk and is
// returned verbatim.
func DecodeEvents(r io.Reader, fn func(Event) error) error {
	// bufio.Reader rather than bufio.Scanner: provenance records carry
	// candidate lists that can exceed Scanner's 64 KiB token cap.
	br := bufio.NewReaderSize(r, 1<<16)
	for i := 1; ; i++ {
		line, err := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			var env envelope
			if jerr := json.Unmarshal(line, &env); jerr != nil {
				return fmt.Errorf("obs: event log line %d: %w", i, jerr)
			}
			if env.V != SchemaVersion {
				return fmt.Errorf("obs: event log line %d has schema v%d; this build reads v%d", i, env.V, SchemaVersion)
			}
			if env.Type == "" {
				return fmt.Errorf("obs: event log line %d has no type", i)
			}
			if ferr := fn(Event{Seq: env.Seq, Type: env.Type, Data: env.Data}); ferr != nil {
				return ferr
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("obs: event log line %d: %w", i, err)
		}
	}
}

// DecodeEventLog parses a JSONL event log into decoded envelopes for
// offline consumers. Small-log convenience wrapper around DecodeEvents;
// prefer DecodeEvents for anything that might not fit in memory.
func DecodeEventLog(data []byte) ([]Event, error) {
	var out []Event
	err := DecodeEvents(bytes.NewReader(data), func(e Event) error {
		out = append(out, e)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
