package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReport feeds arbitrary bytes in as one recorded input (kind%4 picks
// events, tsdb, trace or provenance): loading or building must return an
// error, or the report must render in both formats. Nothing may panic.
func FuzzReport(f *testing.F) {
	// Finite extremes: hi-lo overflowed to +Inf in the sparkline scaling,
	// which indexed the level table at int(NaN).
	f.Add(uint8(0), []byte(`{"v":3,"seq":1,"type":"run_start","data":{"design":"Jumanji","epochs":2,"warmup":0,"banks":20,"bank_bytes":1048576,"apps":[{"app":0,"name":"x","vm":0,"core":0,"lat_crit":true}]}}
{"v":3,"seq":2,"type":"epoch","data":{"epoch":0,"time_us":0,"reconfigured":false,"vulnerability":0,"worst_lat_norm":-1.7e308}}
{"v":3,"seq":3,"type":"epoch","data":{"epoch":1,"time_us":100000,"reconfigured":false,"vulnerability":0,"worst_lat_norm":1.7e308}}
`))
	f.Add(uint8(1), []byte(`{"v":1,"cap":4,"series":[{"name":"system.worst_lat_norm","samples":[{"e":0,"v":-1.7e308},{"e":1,"v":1.7e308}]}]}`))
	// Two finite samples whose sum overflows: the mean was +Inf.
	f.Add(uint8(1), []byte(`{"v":1,"cap":4,"series":[{"name":"system.worst_lat_norm","samples":[{"e":0,"v":1.7e308},{"e":1,"v":1.7e308}]}]}`))
	f.Add(uint8(2), []byte(`{"traceEvents":[{"name":"core.place","cat":"span","ph":"X","ts":0,"dur":5,"pid":1,"tid":0}]}`))
	f.Add(uint8(3), []byte(`{"v":3,"seq":1,"type":"placement_decision","data":{"epoch":0,"time_us":0,"design":"Jumanji","stage":"lat-crit","vm":2,"app":10,"name":"xapian","lat_crit":true,"region":-1,"target_bytes":1048576,"placed_bytes":1048576,"candidates":[{"bank":15,"dist":0,"taken_bytes":1048576}]}}
`))
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		path := filepath.Join(t.TempDir(), "input")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var paths [4]string // events, tsdb, trace, provenance
		paths[kind%4] = path
		in, err := loadInputs(paths[0], paths[1], "", paths[2], paths[3])
		if err != nil {
			return
		}
		rep, err := buildReport("fuzz", 10, in)
		if err != nil {
			return
		}
		for _, row := range rep.Series {
			if row.Samples > 0 && !(row.Min <= row.Mean && row.Mean <= row.Max) {
				t.Fatalf("series %s: mean %v outside [%v, %v]", row.Name, row.Mean, row.Min, row.Max)
			}
		}
		var h, m bytes.Buffer
		if err := renderHTML(&h, rep); err != nil {
			t.Fatalf("html: %v", err)
		}
		if err := renderMarkdown(&m, rep); err != nil {
			t.Fatalf("markdown: %v", err)
		}
	})
}
