// Command perfbench is the end-to-end benchmark of the symtago stack.
// One invocation runs one workload:
//
//	perfbench --workload campaign|rerun|sessions|distrib --seed N --seconds S --trace 0|1
//
// With --trace 0 it measures the end-to-end metrics untraced; with
// --trace 1 it runs the timed phase twice, untraced and traced, and
// reports the per-layer ledger. Every run checks the program's outputs
// outside the timed phase. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// The benchmark drives the program only through public entry points and
// seams (see README.md); it adds no span or counter inside the program.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the untraced metrics every workload reports. Batch
// workloads have no change endpoint and count one campaign run as one
// request; their change latency is the turnaround of one run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"scenarios_per_s", "1/s"},
	{"requests_per_s", "1/s"},
	{"change_p50_ms", "ms"},
	{"change_p99_ms", "ms"},
	{"live_heap_mb", "MB"},
}

// perLayer lists the traced-run ledger. A layer a workload does not
// exercise reads 0 there.
var perLayer = []metricDef{
	{"scenario.generate_ms", "ms"},
	{"campaign.build_ms", "ms"},
	{"campaign.analyze_ms", "ms"},
	{"campaign.simulate_ms", "ms"},
	{"campaign.perturb_ms", "ms"},
	{"parallel.busy_ratio", "ratio"},
	{"core.iterations", "count"},
	{"whatif.hit_ratio", "ratio"},
	{"netsim.frames", "count"},
	{"cache.open_ms", "ms"},
	{"cache.l2_get_us", "us"},
	{"cache.l2_put_us", "us"},
	{"cache.l2_gets", "count"},
	{"cache.l2_puts", "count"},
	{"cache.l2_hit_ratio", "ratio"},
	{"cache.l2_bytes", "B"},
	{"distrib.shard_ms", "ms"},
	{"distrib.worker_ms", "ms"},
	{"distrib.wire_ms", "ms"},
	{"distrib.worker_idle_ratio", "ratio"},
	{"distrib.wire_bytes", "B"},
	{"distrib.shards", "count"},
	{"distrib.retries", "count"},
	{"service.handler_ms", "ms"},
	{"service.wire_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.open_ms", "ms"},
	{"whatif.change_ms", "ms"},
	{"whatif.store_hit_ratio", "ratio"},
	{"whatif.store_evictions", "count"},
	{"obs.overhead_pct", "%"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
}

// options are the command-line settings shared by every workload.
type options struct {
	seed    int64
	seconds int
	trace   bool
	// work is the directory the run may write to (inside the checkout).
	work string
	// small shrinks every input for the benchmark's own tests.
	small bool
	// log receives the run's report lines.
	log io.Writer
}

// size scales an input size down for tests.
func (o options) size(n int) int {
	if o.small {
		return max(n/16, 4)
	}
	return n
}

// outcome is what one workload run hands back for printing.
type outcome struct {
	attempted, failed int
	// problems lists failed output checks; any entry fails the run.
	problems []string
	metrics  map[string]float64
}

// check records a failed output check.
func (o *outcome) check(err error) {
	if err != nil {
		o.problems = append(o.problems, err.Error())
	}
}

type workload func(opts options, out *outcome) error

var workloads = map[string]workload{
	"campaign": runCampaign,
	"rerun":    runRerun,
	"sessions": runSessions,
	"distrib":  runDistrib,
}

func main() {
	ok, err := run(os.Args[1:], os.Stdout, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// run executes one workload and prints its result line to stdout; ok
// is false when an output check failed. small shrinks the inputs.
func run(args []string, stdout io.Writer, small bool) (ok bool, err error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "campaign, rerun, sessions or distrib")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "approximate length of the timed phase")
	trace := fs.Int("trace", 0, "1 reports the per-layer ledger from an extra traced pass")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	wl, known := workloads[*name]
	if !known {
		return false, fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		return false, errors.New("--seconds must be positive and --trace 0 or 1")
	}
	// Runs may share a checkout, so each gets a private work directory.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return false, err
	}
	work, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return false, fmt.Errorf("work directory: %w", err)
	}
	defer os.RemoveAll(work)
	abs, err := filepath.Abs(work)
	if err != nil {
		return false, err
	}

	opts := options{seed: *seed, seconds: *seconds, trace: *trace == 1, work: abs, small: small, log: stdout}
	out := &outcome{metrics: map[string]float64{}}
	if err := wl(opts, out); err != nil {
		return false, fmt.Errorf("%s: %w", *name, err)
	}
	defs := endToEnd
	if opts.trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.name] = value{out.metrics[d.name], d.unit}
	}
	for _, p := range out.problems {
		fmt.Fprintf(stdout, "perfbench: %s: output check failed: %s\n", *name, p)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   len(out.problems) == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return false, err
	}
	fmt.Fprintln(stdout, string(line))
	return len(out.problems) == 0, nil
}

// settle forces two collections, so leftover pool contents and
// finalizers from the previous phase are gone before the next one.
func settle() {
	runtime.GC()
	runtime.GC()
}

// liveHeapMB settles the heap and reports what is still live.
func liveHeapMB() float64 {
	settle()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// memDelta snapshots allocation counters around a timed phase.
type memDelta struct{ before runtime.MemStats }

func startMem() *memDelta {
	m := &memDelta{}
	runtime.ReadMemStats(&m.before)
	return m
}

// record stores the allocation volume and GC cycles since startMem.
func (m *memDelta) record(metrics map[string]float64) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	metrics["runtime.alloc_mb"] = float64(after.TotalAlloc-m.before.TotalAlloc) / (1 << 20)
	metrics["runtime.gc_cycles"] = float64(after.NumGC - m.before.NumGC)
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the middle value (mean of the middle two); 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := min(max(int(math.Ceil(q*float64(len(s)))), 1), len(s))
	return s[rank-1]
}

// overheadPct is how much slower the traced pass ran than the untraced
// one, in percent of the untraced throughput.
func overheadPct(untraced, traced float64) float64 {
	if untraced == 0 {
		return 0
	}
	return 100 * (untraced - traced) / untraced
}

// ratio divides, reading 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
