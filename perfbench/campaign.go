package main

import (
	"context"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/campaign"
	"repro/internal/contenthash"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// Corpus sizes. The default 500-scenario corpus stops just short of
// the scenarios whose simulated observations exceed their compositional
// bounds on seed 1 (536, 571 and 578), so the campaign runs the default
// corpus grown to 600. distrib needs six default-size shards, three per
// worker. The rerun is smaller because its cost is the L2's files: 500
// scenarios write 161k records, one file each, and on the checkout's
// ext4 disk their cold fill took 7 to 30 s and kept drifting across
// consecutive runs. 160 plus 32 new scenarios keep a cold fill short
// enough to repeat it rerunSetups times; fewer scenarios, new ones
// above all, made a run's cost depend on its seed: at 100 plus 20 the
// rerun rate spread by a third over ten seeds.
const (
	campaignCount = 600
	distribCount  = 1536
	rerunBase     = 160
	rerunGrowth   = 32
	rerunSetups   = 3
	warmupCount   = 512
)

// more reports whether a batch pass should run another repetition:
// passes repeat their unit of work until the timed repetitions fill
// --seconds, so a slow host makes a run longer by one repetition at
// most.
func (b *batchRun) more(opts options) bool {
	return b.elapsed < time.Duration(opts.seconds)*time.Second
}

// spanLimit lets one traced campaign keep every span: a scenario
// records about seven.
const spanLimit = 1 << 20

// firstPoll is a context that records when it is first asked whether
// it is cancelled. A campaign asks once per scenario as it claims it,
// so the first poll marks the end of the run's set-up.
type firstPoll struct {
	context.Context
	at atomic.Int64
}

func (c *firstPoll) Err() error {
	if c.at.Load() == 0 {
		c.at.CompareAndSwap(0, time.Now().UnixNano())
	}
	return c.Context.Err()
}

// batchRun accumulates the repetitions of one timed pass.
type batchRun struct {
	elapsed    time.Duration
	turnaround []float64 // ms per repetition
	rates      []float64 // scenarios/s per repetition
	setups     []float64 // s per repetition, where measured
	// want is the text of every row the corpus must produce: the first
	// repetition's, or the untraced pass's in a traced pass.
	want       []string
	violations map[int]int
	spans      *spanTotals
	rows       reportCounts
}

// newBatchRun starts a pass; want holds the rows of an earlier pass
// over the same corpus, nil for the first.
func newBatchRun(traced bool, want []string) *batchRun {
	b := &batchRun{want: want, violations: map[int]int{}}
	if traced {
		b.spans = newSpanTotals()
	}
	return b
}

// reportCounts sums the report-row counters the ledger uses.
type reportCounts struct {
	runs, iterations, frames int
	hits, misses             uint64
}

// record folds one finished repetition in. Every repetition verifies
// the same corpus, so it must produce the same rows; record returns the
// first row that differs from want.
func (b *batchRun) record(rep *campaign.Report, d time.Duration, tr *obs.Trace) error {
	b.elapsed += d
	b.turnaround = append(b.turnaround, ms(d))
	b.rates = append(b.rates, float64(len(rep.Rows))/d.Seconds())
	b.rows.runs++
	err := b.sameRows(rep.Rows)
	for i := range rep.Rows {
		r := &rep.Rows[i]
		if r.Violations > 0 {
			b.violations[r.Index] = r.Violations
		}
		b.rows.iterations += r.Iterations
		b.rows.frames += r.Frames
		b.rows.hits += r.CacheHits
		b.rows.misses += r.CacheMisses
	}
	if tr != nil {
		b.spans.add(tr.Spans())
	}
	return err
}

// sameRows checks a repetition's rows against want, adopting them as
// want when the pass has none yet.
func (b *batchRun) sameRows(rows []campaign.ScenarioResult) error {
	if b.want == nil {
		b.want = make([]string, len(rows))
		for i := range rows {
			b.want[i] = rowText(&rows[i])
		}
		return nil
	}
	if len(rows) != len(b.want) {
		return fmt.Errorf("repetition holds %d rows, the first %d", len(rows), len(b.want))
	}
	for i := range rows {
		if got := rowText(&rows[i]); got != b.want[i] {
			return fmt.Errorf("scenario %d: repetition row %s differs from the first %s", i, got, b.want[i])
		}
	}
	return nil
}

// count writes the pass's operations: each scenario of the corpus is
// one, however many repetitions verified it, because every repetition
// computes the same rows. A scenario with a bound violation failed.
func (b *batchRun) count(out *outcome) {
	out.attempted, out.failed = len(b.want), len(b.violations)
}

// endToEnd writes the untraced metrics of a batch pass. Rates are
// medians over the repetitions, so one repetition slowed by a noisy
// neighbour does not move them.
func (b *batchRun) endToEnd(m map[string]float64) {
	m["scenarios_per_s"] = b.throughput()
	m["requests_per_s"] = ratio(1000, median(b.turnaround))
	m["change_p50_ms"] = median(b.turnaround)
	m["change_p99_ms"] = percentile(b.turnaround, 0.99)
}

// throughput is the pass's median scenarios per second.
func (b *batchRun) throughput() float64 { return median(b.rates) }

// ledger writes the report-row metrics of a traced batch pass, per
// campaign run, plus the stage breakdown; it returns the share of
// scenario time the stages cover.
func (b *batchRun) ledger(m map[string]float64, slots int) float64 {
	runs := float64(b.rows.runs)
	m["core.iterations"] = ratio(float64(b.rows.iterations), runs)
	m["netsim.frames"] = ratio(float64(b.rows.frames), runs)
	m["whatif.hit_ratio"] = ratio(float64(b.rows.hits), float64(b.rows.hits+b.rows.misses))
	return b.spans.scenarioLedger(m, b.elapsed, slots)
}

// report prints the bound violations of the pass: a known soundness
// defect the benchmark counts as failed scenarios.
func (b *batchRun) report(w io.Writer, workload string) {
	idx := make([]int, 0, len(b.violations))
	for i := range b.violations {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for _, i := range idx {
		fmt.Fprintf(w, "perfbench: %s: scenario %d: %d simulated observations exceed their bounds\n",
			workload, i, b.violations[i])
	}
}

// localCampaign runs the function `symtago campaign` calls for a local
// run, timing it from the call until the first scenario is claimed.
func localCampaign(ctx context.Context, spec scenario.Spec, cfg campaign.Config) (*campaign.Report, time.Duration, time.Duration, error) {
	poll := &firstPoll{Context: ctx}
	start := time.Now()
	rep, _, err := experiments.RunCampaign(experiments.CampaignParams{Spec: spec, Config: cfg, Context: poll})
	total := time.Since(start)
	if err != nil {
		return nil, 0, 0, err
	}
	return rep, time.Duration(poll.at.Load() - start.UnixNano()), total, nil
}

// warmUp runs a short local campaign, so the timed phases do not start
// on a cold CPU, heap or page cache.
func warmUp(seed int64, count int) error {
	_, _, _, err := localCampaign(context.Background(), scenario.Spec{Seed: seed, Count: count}, campaign.Config{})
	return err
}

// specFingerprint is the corpus fingerprint the spec defines.
func specFingerprint(spec scenario.Spec) (string, error) {
	corpus, err := scenario.Generate(spec)
	if err != nil {
		return "", err
	}
	return corpus.Fingerprint().String(), nil
}

// tracedContext returns a context carrying a fresh trace when traced.
func tracedContext(traced bool) (context.Context, *obs.Trace) {
	if !traced {
		return context.Background(), nil
	}
	tr := obs.NewTrace(obs.NewID(), spanLimit)
	return obs.ContextWithTrace(context.Background(), tr), tr
}

// runCampaign is the headline batch path: the CLI's local campaign over
// the default corpus spec at 600 scenarios, default simulation settings
// and an nproc-worker pool, repeated to fill the timed phase. Set-up is
// everything before the first scenario starts.
func runCampaign(opts options, out *outcome) error {
	spec := scenario.Spec{Seed: opts.seed, Count: opts.size(campaignCount)}
	want, err := specFingerprint(spec)
	if err != nil {
		return err
	}
	if err := warmUp(opts.seed, opts.size(warmupCount)); err != nil {
		return err
	}
	pass := func(traced bool, rows []string) (*batchRun, *campaign.Report, error) {
		b := newBatchRun(traced, rows)
		var last *campaign.Report
		for b.more(opts) {
			ctx, tr := tracedContext(traced)
			rep, setup, total, err := localCampaign(ctx, spec, campaign.Config{})
			if err != nil {
				return nil, nil, err
			}
			out.check(checkCampaign(rep, spec.Count, want))
			b.setups = append(b.setups, setup.Seconds())
			out.check(b.record(rep, total, tr))
			last = rep
		}
		return b, last, nil
	}

	settle()
	mem := startMem()
	b, last, err := pass(false, nil)
	if err != nil {
		return err
	}
	mem.record(out.metrics)
	out.metrics["live_heap_mb"] = liveHeapMB()
	runtime.KeepAlive(last)
	b.endToEnd(out.metrics)
	out.metrics["setup_s"] = median(b.setups)
	b.count(out)
	b.report(opts.log, "campaign")
	if !opts.trace {
		return nil
	}

	settle()
	// Tracing only observes: the traced pass must repeat the rows.
	tb, _, err := pass(true, b.want)
	if err != nil {
		return err
	}
	gen, err := timeGenerate(spec)
	if err != nil {
		return err
	}
	out.metrics["scenario.generate_ms"] = gen
	share := tb.ledger(out.metrics, runtime.GOMAXPROCS(0))
	fmt.Fprintf(opts.log, "perfbench: campaign: stage self times cover %.1f%% of scenario span time\n", 100*share)
	out.metrics["obs.overhead_pct"] = overheadPct(b.throughput(), tb.throughput())
	return nil
}

// timeGenerate is the median time of the generation call a local
// campaign makes before its first scenario.
func timeGenerate(spec scenario.Spec) (float64, error) {
	var xs []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := scenario.Generate(spec); err != nil {
			return 0, err
		}
		xs = append(xs, ms(time.Since(start)))
	}
	return median(xs), nil
}

// l2Meter is the harness's cache.Store wrapper around the disk L2: it
// times and counts every call the campaign makes into the shared level.
type l2Meter struct {
	inner              cache.Store
	gets, hits, puts   atomic.Uint64
	getNanos, putNanos atomic.Int64
}

func (s *l2Meter) Get(key contenthash.Digest) (any, bool) {
	start := time.Now()
	v, ok := s.inner.Get(key)
	s.getNanos.Add(int64(time.Since(start)))
	s.gets.Add(1)
	if ok {
		s.hits.Add(1)
	}
	return v, ok
}

func (s *l2Meter) Put(key contenthash.Digest, value any) {
	start := time.Now()
	s.inner.Put(key, value)
	s.putNanos.Add(int64(time.Since(start)))
	s.puts.Add(1)
}

func (s *l2Meter) Stats() cache.Stats { return s.inner.Stats() }

// syncDisks flushes dirty pages and the journal, so a phase that
// writes the L2 does not compete with write-back left over from an
// earlier one: without it, rerun repetitions slowed down one after the
// other within a run (2.5 s to 3.6 s).
func syncDisks() { syscall.Sync() }

// pruneAfter deletes every file under dir modified after cutoff: it
// returns the L2 to its post-set-up population without knowing its
// record format.
func pruneAfter(dir string, cutoff time.Time) error {
	return filepath.WalkDir(dir, func(path string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return err
		}
		info, err := de.Info()
		if err != nil {
			return err
		}
		if info.ModTime().After(cutoff) {
			return os.Remove(path)
		}
		return nil
	})
}

// runRerun is the only workload where the disk L2 does most of the
// work. Set-up fills an empty L2 with a 160-scenario corpus, as a first
// `symtago campaign -cache-dir` would. Each timed repetition reopens
// the L2 the way a new process would and reruns the corpus grown by 32
// new scenarios; the new scenarios keep a whole-report memo from
// passing as a cache win. Between repetitions the harness deletes what
// the repetition added, so every repetition sees the same L2.
func runRerun(opts options, out *outcome) error {
	base := scenario.Spec{Seed: opts.seed, Count: opts.size(rerunBase)}
	grown := scenario.Spec{Seed: opts.seed, Count: opts.size(rerunBase + rerunGrowth)}
	want, err := specFingerprint(grown)
	if err != nil {
		return err
	}
	dir := filepath.Join(opts.work, "l2")

	// Set-up is a cold fill of an empty L2, repeated; the last fill
	// stays for the timed phase. The fills warm the process up: the
	// first is the slowest, and the median leaves it out.
	var setups []float64
	var coldRows []campaign.ScenarioResult
	for i := 0; i < rerunSetups; i++ {
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		syncDisks()
		start := time.Now()
		disk, err := cache.NewDisk(dir, 0)
		if err != nil {
			return err
		}
		cold, _, err := experiments.RunCampaign(experiments.CampaignParams{Spec: base, Config: campaign.Config{Cache: disk}})
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		if coldRows == nil {
			coldRows = cold.Rows
		}
		out.check(checkSharedRows(coldRows, cold.Rows))
	}
	out.metrics["setup_s"] = median(setups)
	// File times may be a clock tick coarse: leave a gap on both sides
	// of the cutoff.
	time.Sleep(50 * time.Millisecond)
	cutoff := time.Now().Add(-25 * time.Millisecond)
	syncDisks()

	pass := func(traced bool, rows []string) (*batchRun, error) {
		b := newBatchRun(traced, rows)
		var opens []float64
		var gets, hits, puts uint64
		var getNanos, putNanos int64
		var bytes int64
		reopened := -1
		// The first rerun after the cold fills is a warm-up, checked but
		// not timed: it ran up to 1.6 times the median repetition and
		// was the slowest in most runs.
		for warm := true; warm || b.more(opts); warm = false {
			ctx, tr := tracedContext(traced)
			t0 := time.Now()
			disk, err := cache.NewDisk(dir, 0)
			if err != nil {
				return nil, err
			}
			opened := time.Since(t0)
			// Every repetition must reopen the same population.
			if entries := disk.Stats().Entries; reopened < 0 {
				reopened = entries
			} else if entries != reopened {
				out.check(fmt.Errorf("reopened L2 holds %d records, the first reopen %d", entries, reopened))
			}
			var l2 cache.Store = disk
			meter := &l2Meter{inner: disk}
			if traced {
				l2 = meter
			}
			rep, _, err := experiments.RunCampaign(experiments.CampaignParams{
				Spec: grown, Config: campaign.Config{Cache: l2}, Context: ctx,
			})
			d := time.Since(t0)
			if err != nil {
				return nil, err
			}
			if !warm {
				out.check(b.record(rep, d, tr))
				opens = append(opens, ms(opened))
				gets, hits, puts = gets+meter.gets.Load(), hits+meter.hits.Load(), puts+meter.puts.Load()
				getNanos += meter.getNanos.Load()
				putNanos += meter.putNanos.Load()
				bytes += disk.Stats().Bytes
			}
			out.check(checkCampaign(rep, grown.Count, want))
			out.check(checkSharedRows(coldRows, rep.Rows))
			if err := pruneAfter(dir, cutoff); err != nil {
				return nil, err
			}
			syncDisks()
		}
		if traced {
			runs := float64(b.rows.runs)
			m := out.metrics
			m["cache.open_ms"] = median(opens)
			m["cache.l2_get_us"] = ratio(float64(getNanos)/1e3, float64(gets))
			m["cache.l2_put_us"] = ratio(float64(putNanos)/1e3, float64(puts))
			m["cache.l2_gets"] = float64(gets) / runs
			m["cache.l2_puts"] = float64(puts) / runs
			m["cache.l2_hit_ratio"] = ratio(float64(hits), float64(gets))
			m["cache.l2_bytes"] = float64(bytes) / runs
		}
		return b, nil
	}

	settle()
	mem := startMem()
	b, err := pass(false, nil)
	if err != nil {
		return err
	}
	mem.record(out.metrics)
	out.metrics["live_heap_mb"] = liveHeapMB()
	b.endToEnd(out.metrics)
	b.count(out)
	b.report(opts.log, "rerun")

	if opts.trace {
		settle()
		tb, err := pass(true, b.want)
		if err != nil {
			return err
		}
		gen, err := timeGenerate(grown)
		if err != nil {
			return err
		}
		out.metrics["scenario.generate_ms"] = gen
		tb.ledger(out.metrics, runtime.GOMAXPROCS(0))
		out.metrics["obs.overhead_pct"] = overheadPct(b.throughput(), tb.throughput())
	}

	// The shared scenarios must be served from the L2 entirely: a rerun
	// of the base corpus over the reopened L2 may not miss once.
	disk, err := cache.NewDisk(dir, 0)
	if err != nil {
		return err
	}
	if _, _, err := experiments.RunCampaign(experiments.CampaignParams{Spec: base, Config: campaign.Config{Cache: disk}}); err != nil {
		return err
	}
	out.check(checkNoMisses(disk.Stats()))
	return nil
}
