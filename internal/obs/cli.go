package obs

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"jumanji/internal/obs/tsdb"
)

// CLI bundles the standard observability flags shared by the commands
// (-events, -tracefile, -metrics, -spans, -cpuprofile, -memprofile) and
// owns the files behind them. Usage:
//
//	var cli obs.CLI
//	cli.RegisterFlags(flag.CommandLine)
//	flag.Parse()
//	if err := cli.Open(); err != nil { ... }
//	defer cli.Close()
//	opts.Sinks = cli.Sinks()
//
// Flags left empty cost nothing: the accessors return nil and every sink
// method no-ops on nil.
type CLI struct {
	EventsPath  string
	TracePath   string
	MetricsPath string
	TSDBPath    string
	ProvPath    string
	CPUProfile  string
	MemProfile  string
	SpansOn     bool

	sinks  Sinks // the recording sinks and Spans; Progress and Publish stay nil
	files  []*os.File
	cpuOn  bool
	closed bool
}

// RegisterFlags declares the observability flags on fs.
func (c *CLI) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.EventsPath, "events", "", "write the JSONL epoch decision log to this file")
	fs.StringVar(&c.TracePath, "tracefile", "", "write a Chrome trace-event file (loadable in Perfetto) to this path")
	fs.StringVar(&c.MetricsPath, "metrics", "", "dump the metric registry as text to this file after the run, or '-' for stderr")
	fs.StringVar(&c.TSDBPath, "tsdb", "", "record per-epoch metric time series (flight recorder) and dump them as JSON to this file; implies metric collection")
	fs.StringVar(&c.ProvPath, "provenance", "", "write the JSONL placement-provenance log (why every VM landed where it did) to this file")
	fs.StringVar(&c.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&c.MemProfile, "memprofile", "", "write a pprof heap profile to this file")
	fs.BoolVar(&c.SpansOn, "spans", false, "time simulator phases on the wall clock; summary to stderr at exit (implied by -status)")
}

func (c *CLI) create(path string) (*os.File, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	c.files = append(c.files, f)
	return f, nil
}

// Open creates the requested output files and starts CPU profiling. It is a
// no-op for every flag left empty.
func (c *CLI) Open() error {
	if c.EventsPath != "" {
		f, err := c.create(c.EventsPath)
		if err != nil {
			return err
		}
		c.sinks.Events = NewEventLog(f)
	}
	if c.TracePath != "" {
		f, err := c.create(c.TracePath)
		if err != nil {
			return err
		}
		c.sinks.Trace = NewTrace(f)
	}
	if c.MetricsPath != "" || c.TSDBPath != "" {
		// The flight recorder samples the registry, so -tsdb forces one on
		// even without -metrics.
		c.sinks.Metrics = NewRegistry()
	}
	if c.TSDBPath != "" {
		c.sinks.TS = tsdb.New(tsdb.DefaultCapacity)
	}
	if c.ProvPath != "" {
		f, err := c.create(c.ProvPath)
		if err != nil {
			return err
		}
		c.sinks.Prov = NewEventLog(f)
	}
	if c.SpansOn {
		c.sinks.Spans = NewSpans()
		if c.sinks.Trace != nil {
			// With both -spans and -tracefile, the phase timings land in the
			// trace as their own "wall clock" lane at Close.
			c.sinks.Spans.EnableTrace()
		}
	}
	if c.CPUProfile != "" {
		f, err := c.create(c.CPUProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		c.cpuOn = true
	}
	return nil
}

// Sinks returns the opened sinks: each is nil when its flag is unset.
// Progress and Publish are left for the caller (statusz.CLI supplies both).
func (c *CLI) Sinks() Sinks { return c.sinks }

// Registry returns the metric registry (nil when -metrics is unset).
func (c *CLI) Registry() *Registry { return c.sinks.Metrics }

// Events returns the decision log (nil when -events is unset).
func (c *CLI) Events() *EventLog { return c.sinks.Events }

// Trace returns the trace sink (nil when -tracefile is unset).
func (c *CLI) Trace() *Trace { return c.sinks.Trace }

// TS returns the flight-recorder store (nil when -tsdb is unset).
func (c *CLI) TS() *tsdb.DB { return c.sinks.TS }

// Prov returns the placement-provenance log (nil when -provenance is
// unset).
func (c *CLI) Prov() *EventLog { return c.sinks.Prov }

// Close finishes every sink: stops the CPU profile, writes the heap
// profile, flushes the trace, dumps the metrics, and closes the files. It
// returns the first error but always attempts every step. Calls after the
// first do nothing, so a command can defer Close for its early returns and
// still close explicitly on its success path.
func (c *CLI) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if c.cpuOn {
		pprof.StopCPUProfile()
		c.cpuOn = false
	}
	if c.MemProfile != "" {
		if f, err := c.create(c.MemProfile); err != nil {
			keep(err)
		} else {
			runtime.GC() // fresh statistics for the heap profile
			keep(pprof.WriteHeapProfile(f))
		}
	}
	s := c.sinks
	if s.Spans != nil {
		s.Spans.WriteTrace(s.Trace) // before Close; no-op when -tracefile is unset
		keep(s.Spans.WriteText(os.Stderr))
	}
	if s.Trace != nil {
		keep(s.Trace.Close())
	}
	if s.Events != nil {
		keep(s.Events.Err())
	}
	if s.Prov != nil {
		keep(s.Prov.Err())
	}
	if s.TS != nil {
		if f, err := c.create(c.TSDBPath); err != nil {
			keep(err)
		} else {
			keep(s.TS.Write(f))
		}
	}
	if s.Metrics != nil && c.MetricsPath != "" {
		if c.MetricsPath == "-" {
			keep(s.Metrics.WriteText(os.Stderr))
		} else if f, err := c.create(c.MetricsPath); err != nil {
			keep(err)
		} else {
			keep(s.Metrics.WriteText(f))
		}
	}
	for _, f := range c.files {
		if err := f.Close(); err != nil {
			keep(fmt.Errorf("obs: closing %s: %w", f.Name(), err))
		}
	}
	c.files = nil
	return first
}
