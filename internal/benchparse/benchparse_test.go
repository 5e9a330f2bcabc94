package benchparse

import (
	"bytes"
	"strings"
	"testing"
)

const transcript = `goos: linux
goarch: amd64
pkg: repro
cpu: whatever
BenchmarkWhatIf-8   	    9346	    126897 ns/op	    7.103 speedup	   45958 B/op	     257 allocs/op
BenchmarkWhatIf-8   	    9000	    130000 ns/op	    6.900 speedup	   46000 B/op	     258 allocs/op
BenchmarkWhatIf-8   	    9100	    124000 ns/op	    7.400 speedup	   45900 B/op	     257 allocs/op
BenchmarkWhatIfBus/Incremental-8 	   12000	     95000 ns/op	   12000 B/op	      80 allocs/op
BenchmarkNetSim-8   	     100	  11280000 ns/op	 12265 frames_per_run	 1087343 frames/s	 2408 B/op	 24 allocs/op
BenchmarkCampaign-8 	       2	 510000000 ns/op	      64.00 scenarios	     125.5 scenarios/s	       0 violations	  500 B/op	 5 allocs/op
PASS
ok  	repro	12.3s
`

func TestParseAndAggregate(t *testing.T) {
	samples, err := Parse(strings.NewReader(transcript))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 6 {
		t.Fatalf("parsed %d samples, want 6", len(samples))
	}
	f := Aggregate(samples, "unit test")
	w := f.Benchmarks["BenchmarkWhatIf"]
	if w == nil {
		t.Fatal("BenchmarkWhatIf missing")
	}
	if w["ns/op"] != 126897 { // median of 126897, 130000, 124000
		t.Errorf("ns/op median = %g, want 126897", w["ns/op"])
	}
	if w["speedup"] != 7.103 {
		t.Errorf("speedup median = %g, want 7.103", w["speedup"])
	}
	if w["allocs/op"] != 257 {
		t.Errorf("allocs/op median = %g, want 257", w["allocs/op"])
	}
	if f.Benchmarks["BenchmarkWhatIfBus/Incremental"] == nil {
		t.Error("sub-benchmark name not preserved")
	}
	if f.Benchmarks["BenchmarkNetSim"]["frames/s"] != 1087343 {
		t.Errorf("frames/s = %g", f.Benchmarks["BenchmarkNetSim"]["frames/s"])
	}
}

func TestParseRejectsNoise(t *testing.T) {
	for _, line := range []string{
		"PASS",
		"ok  	repro	12.3s",
		"goos: linux",
		"Benchmark typo line",
		"BenchmarkX-8 notanumber 12 ns/op",
		"BenchmarkX-8 100 twelve ns/op",
	} {
		if _, ok := ParseLine(line); ok {
			t.Errorf("ParseLine accepted %q", line)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	samples, err := Parse(strings.NewReader(transcript))
	if err != nil {
		t.Fatal(err)
	}
	f := Aggregate(samples, "rt")
	var buf bytes.Buffer
	if err := f.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := got.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatal("JSON round trip not byte-identical")
	}
	if _, err := ReadFile(strings.NewReader(`{"schema":"other/v9"}`)); err == nil {
		t.Fatal("unknown schema accepted")
	}
}

func file(benches map[string]map[string]float64) *File {
	return &File{Schema: SchemaV1, Benchmarks: benches}
}

func TestCompare(t *testing.T) {
	base := file(map[string]map[string]float64{
		"BenchmarkWhatIf":   {"ns/op": 100000, "speedup": 7.0, "allocs/op": 250, "B/op": 1000},
		"BenchmarkNetSim":   {"ns/op": 1000000, "frames/s": 1000000},
		"BenchmarkCampaign": {"ns/op": 5e8, "scenarios/s": 120},
		"BenchmarkOther":    {"ns/op": 10},
	})
	keys := []string{"BenchmarkWhatIf", "BenchmarkNetSim", "BenchmarkCampaign"}

	// Within threshold: no findings.
	cur := file(map[string]map[string]float64{
		"BenchmarkWhatIf":   {"ns/op": 105000, "speedup": 6.8, "allocs/op": 250},
		"BenchmarkNetSim":   {"ns/op": 1050000, "frames/s": 950000},
		"BenchmarkCampaign": {"ns/op": 5.2e8, "scenarios/s": 115},
		"BenchmarkOther":    {"ns/op": 1000}, // not gated
	})
	if regs := Compare(base, cur, keys, 0.10); len(regs) != 0 {
		t.Fatalf("unexpected regressions: %v", regs)
	}

	// ns/op rising and rates falling past the threshold are caught;
	// non-gated units (violations, the what-if speedup ratio) and
	// benchmarks are not. A speedup that falls because the from-scratch
	// analysis got faster is not an incremental regression.
	cur = file(map[string]map[string]float64{
		"BenchmarkWhatIf":   {"ns/op": 120000, "speedup": 6.0, "allocs/op": 250},
		"BenchmarkNetSim":   {"ns/op": 1000000, "frames/s": 800000},
		"BenchmarkCampaign": {"ns/op": 5e8, "scenarios/s": 121, "violations": 3},
	})
	regs := Compare(base, cur, keys, 0.10)
	want := map[string]bool{
		"BenchmarkWhatIf/ns/op":    true,
		"BenchmarkNetSim/frames/s": true,
	}
	if len(regs) != len(want) {
		t.Fatalf("regressions %v, want %d", regs, len(want))
	}
	for _, r := range regs {
		if !want[r.Bench+"/"+r.Unit] {
			t.Errorf("unexpected regression %v", r)
		}
		if r.String() == "" {
			t.Error("empty render")
		}
	}

	// The serve-load units: per-route p99s are lower-better, the
	// request rate is a gated rate.
	tailBase := file(map[string]map[string]float64{
		"BenchmarkServeLoad": {"p99_changes_ms": 0.30, "requests/s": 7000, "shed": 100},
	})
	tailCur := file(map[string]map[string]float64{
		"BenchmarkServeLoad": {"p99_changes_ms": 0.40, "requests/s": 6000, "shed": 5000},
	})
	regs = Compare(tailBase, tailCur, []string{"BenchmarkServeLoad"}, 0.10)
	want = map[string]bool{
		"BenchmarkServeLoad/p99_changes_ms": true,
		"BenchmarkServeLoad/requests/s":     true,
	}
	if len(regs) != len(want) {
		t.Fatalf("serve-load regressions %v, want %d", regs, len(want))
	}
	for _, r := range regs {
		if !want[r.Bench+"/"+r.Unit] {
			t.Errorf("unexpected serve-load regression %v", r)
		}
	}

	// Missing metrics or benchmarks never fail the gate.
	cur = file(map[string]map[string]float64{"BenchmarkWhatIf": {"B/op": 99999999}})
	if regs := Compare(base, cur, keys, 0.10); len(regs) != 1 || regs[0].Unit != "B/op" {
		t.Fatalf("B/op gate: %v", regs)
	}
	cur = file(map[string]map[string]float64{})
	if regs := Compare(base, cur, keys, 0.10); len(regs) != 0 {
		t.Fatalf("empty current file regressed: %v", regs)
	}
}
