package benchparse

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed benchmark result line.
type Sample struct {
	// Name is the benchmark name with the trailing -GOMAXPROCS
	// stripped (sub-benchmark paths are kept).
	Name string
	// Iters is the b.N of the run.
	Iters int
	// Values maps unit -> value for every "value unit" pair of the
	// line (ns/op, B/op, allocs/op, custom b.ReportMetric units).
	Values map[string]float64
}

// procSuffix strips the -N GOMAXPROCS suffix of a benchmark name.
var procSuffix = regexp.MustCompile(`-\d+$`)

// ParseLine parses one benchfmt result line; ok is false for any
// other line (headers, PASS, package footers).
func ParseLine(line string) (Sample, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Sample{}, false
	}
	iters, err := strconv.Atoi(fields[1])
	if err != nil {
		return Sample{}, false
	}
	s := Sample{
		Name:   procSuffix.ReplaceAllString(fields[0], ""),
		Iters:  iters,
		Values: map[string]float64{},
	}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Sample{}, false
		}
		s.Values[fields[i+1]] = v
	}
	if len(s.Values) == 0 {
		return Sample{}, false
	}
	return s, true
}

// Parse reads a whole `go test -bench` transcript.
func Parse(r io.Reader) ([]Sample, error) {
	var samples []Sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		if s, ok := ParseLine(sc.Text()); ok {
			samples = append(samples, s)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchparse: %w", err)
	}
	return samples, nil
}

// File is the BENCH_*.json schema: per-benchmark metric medians.
type File struct {
	// Schema identifies the format.
	Schema string `json:"schema"`
	// Note is free-form provenance (commit, CI run, command).
	Note string `json:"note,omitempty"`
	// Benchmarks maps benchmark name -> unit -> median value across
	// the parsed -count runs.
	Benchmarks map[string]map[string]float64 `json:"benchmarks"`
}

// SchemaV1 is the current schema tag.
const SchemaV1 = "symtago-bench/v1"

// median returns the middle of a sorted copy of vs.
func median(vs []float64) float64 {
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// Aggregate folds samples into the File form: for every benchmark,
// the per-unit median across its runs.
func Aggregate(samples []Sample, note string) *File {
	byName := map[string]map[string][]float64{}
	for _, s := range samples {
		units := byName[s.Name]
		if units == nil {
			units = map[string][]float64{}
			byName[s.Name] = units
		}
		for unit, v := range s.Values {
			units[unit] = append(units[unit], v)
		}
	}
	f := &File{Schema: SchemaV1, Note: note, Benchmarks: map[string]map[string]float64{}}
	for name, units := range byName {
		m := map[string]float64{}
		for unit, vs := range units {
			m[unit] = median(vs)
		}
		f.Benchmarks[name] = m
	}
	return f
}

// WriteJSON writes f with stable formatting (encoding/json sorts map
// keys, so equal files are byte-identical).
func (f *File) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// ReadFile parses a BENCH_*.json.
func ReadFile(r io.Reader) (*File, error) {
	var f File
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("benchparse: %w", err)
	}
	if f.Schema != SchemaV1 {
		return nil, fmt.Errorf("benchparse: unknown schema %q", f.Schema)
	}
	return &f, nil
}

// lowerBetter reports the units where an increase is a regression:
// the allocation-profile units plus the per-route tail latencies the
// serve load benchmark emits (p99_<route>_ms); all other gated units
// are rates where a decrease is a regression.
func lowerBetter(unit string) bool {
	switch unit {
	case "ns/op", "B/op", "allocs/op":
		return true
	}
	return strings.HasPrefix(unit, "p99_")
}

// gatedRates are the custom metrics the CI gate watches beyond the
// allocation-profile units. BenchmarkWhatIf's speedup is reported but
// not gated: it divides the from-scratch time by the incremental time,
// so a faster from-scratch analysis would read as an incremental
// regression. The incremental path is gated by its own ns/op, B/op and
// allocs/op.
var gatedRates = map[string]bool{"scenarios/s": true, "frames/s": true, "requests/s": true}

// Regression is one gated metric that moved past the threshold in the
// bad direction.
type Regression struct {
	Bench, Unit string
	Old, New    float64
	// Change is the signed fractional change of the value (+0.25 =
	// rose 25%); the bad direction depends on the unit.
	Change float64
}

func (r Regression) String() string {
	return fmt.Sprintf("%s %s: %.4g -> %.4g (%+.1f%%)", r.Bench, r.Unit, r.Old, r.New, 100*r.Change)
}

// Compare gates cur against base: for every benchmark whose name
// starts with one of the key prefixes (sub-benchmarks included), the
// lower-better units (ns/op, B/op, allocs/op, p99_*) must not rise by
// more than threshold, and the gated rate metrics (scenarios/s,
// frames/s, requests/s) must not fall by more than threshold. Metrics
// absent from either file are skipped — the gate never fails on
// coverage changes, only on movement.
func Compare(base, cur *File, keys []string, threshold float64) []Regression {
	var regs []Regression
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		gated := false
		for _, k := range keys {
			if name == k || strings.HasPrefix(name, k+"/") {
				gated = true
				break
			}
		}
		if !gated {
			continue
		}
		curUnits := cur.Benchmarks[name]
		if curUnits == nil {
			continue
		}
		baseUnits := base.Benchmarks[name]
		units := make([]string, 0, len(baseUnits))
		for unit := range baseUnits {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			if !lowerBetter(unit) && !gatedRates[unit] {
				continue
			}
			oldV := baseUnits[unit]
			newV, ok := curUnits[unit]
			if !ok || oldV == 0 {
				continue
			}
			change := newV/oldV - 1 // >0 means the value rose
			if lowerBetter(unit) && change > threshold {
				regs = append(regs, Regression{Bench: name, Unit: unit, Old: oldV, New: newV, Change: change})
			}
			if gatedRates[unit] && -change > threshold {
				regs = append(regs, Regression{Bench: name, Unit: unit, Old: oldV, New: newV, Change: change})
			}
		}
	}
	return regs
}
