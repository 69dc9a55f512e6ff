package tsdb

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
)

func TestAppendAndAt(t *testing.T) {
	db := New(4)
	for e := 0; e < 3; e++ {
		db.Append("a", e, float64(e)*10)
	}
	s := db.Lookup("a")
	if s.Len() != 3 || s.Total() != 3 || s.Dropped() != 0 {
		t.Fatalf("len=%d total=%d dropped=%d", s.Len(), s.Total(), s.Dropped())
	}
	for i, got := range db.DumpSeries("a").Samples {
		if got.Epoch != int32(i) || got.Value != float64(i)*10 {
			t.Errorf("sample %d = %+v", i, got)
		}
	}
}

func TestRingEviction(t *testing.T) {
	db := New(4)
	for e := 0; e < 10; e++ {
		db.Append("a", e, float64(e))
	}
	s := db.Lookup("a")
	if s.Len() != 4 || s.Total() != 10 || s.Dropped() != 6 {
		t.Fatalf("len=%d total=%d dropped=%d", s.Len(), s.Total(), s.Dropped())
	}
	d := db.DumpSeries("a")
	if d.Start != 6 || len(d.Samples) != 4 {
		t.Fatalf("dump start=%d n=%d", d.Start, len(d.Samples))
	}
	// Survivors are the last four, oldest first.
	for i, got := range d.Samples {
		if got.Epoch != int32(6+i) {
			t.Errorf("sample %d epoch = %d, want %d", i, got.Epoch, 6+i)
		}
	}
}

func TestNonFiniteDropped(t *testing.T) {
	db := New(4)
	db.Append("a", 0, math.NaN())
	db.Append("a", 1, math.Inf(1))
	db.Append("a", 2, 1.5)
	if d := db.DumpSeries("a"); len(d.Samples) != 1 || d.Samples[0].Value != 1.5 {
		t.Fatalf("non-finite values not dropped: %+v", db.Dump())
	}
}

func TestNilDBSafe(t *testing.T) {
	var db *DB
	if db.Enabled() {
		t.Fatal("nil DB enabled")
	}
	db.Append("a", 0, 1)
	db.Merge(New(4))
	if db.Dump() != nil || db.Names() != nil || db.Cap() != 0 {
		t.Fatal("nil DB not inert")
	}
	var s *Series
	s.append(0, 1)
	if s.Len() != 0 || s.Total() != 0 || s.Dropped() != 0 {
		t.Fatal("nil Series not inert")
	}
}

func TestMergeEqualsSerial(t *testing.T) {
	// Two "cells" each record their own store; merging them in cell order
	// must reproduce the store a serial run would have built.
	serial := New(8)
	c0, c1 := New(8), New(8)
	for e := 0; e < 12; e++ {
		serial.Append("x", e, float64(e))
		serial.Append("y", e, float64(-e))
	}
	for e := 0; e < 6; e++ {
		c0.Append("x", e, float64(e))
		c0.Append("y", e, float64(-e))
	}
	for e := 6; e < 12; e++ {
		c1.Append("x", e, float64(e))
		c1.Append("y", e, float64(-e))
	}
	merged := New(8)
	merged.Merge(c0)
	merged.Merge(c1)

	var a, b bytes.Buffer
	if err := serial.Write(&a); err != nil {
		t.Fatal(err)
	}
	if err := merged.Write(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("merged dump differs from serial:\n%s\nvs\n%s", b.String(), a.String())
	}
	// Dropped counts carry over: 12 appends into cap 8 leaves start=4.
	if d := merged.DumpSeries("x"); d.Start != 4 || len(d.Samples) != 8 {
		t.Fatalf("merged x start=%d n=%d", d.Start, len(d.Samples))
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	db := New(4)
	for e := 0; e < 7; e++ {
		db.Append("a.p95", e, 0.1*float64(e))
	}
	db.Append("b", 0, 123.456789)
	var buf bytes.Buffer
	if err := db.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := got.Write(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatalf("round trip not byte-identical:\n%s\nvs\n%s", buf.String(), buf2.String())
	}
	if s := got.Lookup("a.p95"); s.Dropped() != 3 || s.Len() != 4 {
		t.Fatalf("round-tripped dropped=%d len=%d", s.Dropped(), s.Len())
	}
}

func TestReadRejectsBadDumps(t *testing.T) {
	for name, in := range map[string]string{
		"bad version":   `{"v":99,"cap":4,"series":[]}`,
		"bad cap":       `{"v":1,"cap":0,"series":[]}`,
		"unknown field": `{"v":1,"cap":4,"series":[],"extra":1}`,
		"over capacity": `{"v":1,"cap":1,"series":[{"name":"a","samples":[{"e":0,"v":1},{"e":1,"v":2}]}]}`,
		"repeated":      `{"v":1,"cap":4,"series":[{"name":"a","samples":[]},{"name":"a","samples":[]}]}`,
		"not json":      `nope`,
	} {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: Read accepted %q", name, in)
		}
	}
}

func TestNamesSortedDumpDeterministic(t *testing.T) {
	db := New(4)
	db.Append("zeta", 0, 1)
	db.Append("alpha", 0, 2)
	names := db.Names()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "zeta" {
		t.Fatalf("Names() = %v", names)
	}
	d := db.Dump()
	if d[0].Name != "alpha" || d[1].Name != "zeta" {
		t.Fatalf("Dump order %v %v", d[0].Name, d[1].Name)
	}
}

// TestAppendSteadyStateAllocs pins the recorder's core promise: once a
// series exists, appending costs zero allocations.
func TestAppendSteadyStateAllocs(t *testing.T) {
	db := New(64)
	db.Append("a", 0, 1) // create the series
	allocs := testing.AllocsPerRun(100, func() {
		db.Append("a", 1, 2)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Append allocates %v per op, want 0", allocs)
	}
}

// hugeCapDumps claim capacities no store could reserve. Read used to
// allocate cap samples per series: the first took ~3.2 GB, the second
// killed the process with a runtime out-of-memory fatal error.
var hugeCapDumps = []string{
	`{"v":1,"cap":100000000,"series":[{"name":"a","start":0,"samples":[]},{"name":"b","start":0,"samples":[]}]}`,
	`{"v":1,"cap":1000000000000,"series":[{"name":"a","start":0,"samples":[]},{"name":"b","start":0,"samples":[]}]}`,
}

// TestReadBoundedByInput pins that Read's memory follows the bytes it is
// given, not the capacity the dump claims.
func TestReadBoundedByInput(t *testing.T) {
	for _, in := range hugeCapDumps {
		db, err := Read(strings.NewReader(in))
		if err != nil {
			t.Fatalf("Read(%s): %v", in, err)
		}
		if got := len(db.Names()); got != 2 {
			t.Fatalf("Read(%s): %d series, want 2", in, got)
		}
	}
	var dump strings.Builder
	fmt.Fprintf(&dump, `{"v":1,"cap":%d,"series":[`, DefaultCapacity)
	for i := 0; i < 1000; i++ {
		if i > 0 {
			dump.WriteByte(',')
		}
		fmt.Fprintf(&dump, `{"name":"s%04d","samples":[]}`, i)
	}
	dump.WriteString("]}")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	db, err := Read(strings.NewReader(dump.String()))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(db.Names()); got != 1000 {
		t.Fatalf("read %d series, want 1000", got)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
		t.Errorf("reading 1000 empty series at cap %d allocated %d bytes, want < 4 MB", DefaultCapacity, alloc)
	}
}

// TestReadThenAppendWraps checks that a series read from a dump keeps its
// capacity: appends grow its ring up to cap, then evict the oldest.
func TestReadThenAppendWraps(t *testing.T) {
	db, err := Read(strings.NewReader(`{"v":1,"cap":3,"series":[{"name":"a","start":5,"samples":[{"e":5,"v":1}]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	for e := 6; e < 10; e++ {
		db.Append("a", e, float64(e))
	}
	d := db.DumpSeries("a")
	if d.Start != 7 || len(d.Samples) != 3 || d.Samples[0].Epoch != 7 || d.Samples[2].Epoch != 9 {
		t.Fatalf("after wrap: %+v", d)
	}
}

// FuzzRead feeds arbitrary bytes to Read, which parses dumps handed to
// cmd/report and journalled cell states on resume: malformed input must be
// an error, never a panic, and anything accepted must write back to a dump
// that reads and writes identically.
func FuzzRead(f *testing.F) {
	db := New(4)
	for e := 0; e < 7; e++ {
		db.Append("a.p95", e, 0.1*float64(e))
	}
	var buf bytes.Buffer
	if err := db.Write(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, in := range hugeCapDumps {
		f.Add([]byte(in))
	}
	f.Add([]byte(`{"v":1,"cap":1,"series":[{"name":"a","start":18446744073709551615,"samples":[{"e":0,"v":1}]}]}`))
	f.Fuzz(func(t *testing.T, in []byte) {
		db, err := Read(bytes.NewReader(in))
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := db.Write(&once); err != nil {
			t.Fatal(err)
		}
		back, err := Read(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("re-reading Write output: %v\n%s", err, once.String())
		}
		if err := back.Write(&twice); err != nil {
			t.Fatal(err)
		}
		if once.String() != twice.String() {
			t.Fatalf("dump not stable across a round trip:\n%s\nvs\n%s", once.String(), twice.String())
		}
	})
}
