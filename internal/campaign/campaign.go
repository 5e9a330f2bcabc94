package campaign

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/contenthash"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/scenario"
	"repro/internal/whatif"
)

// Config parameterises a campaign run.
type Config struct {
	// Workers bounds the worker pool (<= 0 selects GOMAXPROCS). The
	// report is bit-identical for every worker count.
	Workers int
	// Seeds is the number of network-simulation runs per scenario
	// (default 2; negative disables the simulation stage).
	Seeds int
	// Duration is the simulated span per run (default 200ms).
	Duration time.Duration
	// StoreCapacity bounds each scenario's what-if store, in cost units
	// (default 4096).
	StoreCapacity int
	// MaxIterations bounds the compositional fixpoint (default
	// core.DefaultMaxIterations).
	MaxIterations int
	// Cache is an optional shared second-level store (typically a
	// cache.Disk). When set, each scenario's private LRU is stacked on
	// top of it as a cache.Tiered, so converged results survive across
	// scenarios, campaign reruns, and worker processes. The shared level
	// is a pure accelerator: rows — including their cache counters — are
	// bit-identical with or without it (see the whatif pinned-stats
	// contract). Cache is process-local and never travels over a wire.
	Cache cache.Store
	// Flight, when set, records every scenario into the flight
	// recorder: the N slowest keep their full span trees for later
	// inspection. Like Cache it is process-local, never on the wire,
	// and strictly an observer — rows are identical with or without it.
	Flight *obs.FlightRecorder
}

func (c Config) withDefaults() Config {
	if c.Seeds == 0 {
		c.Seeds = 2
	}
	if c.Duration == 0 {
		c.Duration = 200 * time.Millisecond
	}
	if c.StoreCapacity == 0 {
		c.StoreCapacity = 4096
	}
	return c
}

// ScenarioResult is the per-scenario row of a campaign.
type ScenarioResult struct {
	// Index and Seed identify the scenario in its corpus.
	Index int
	Seed  int64

	// Topology size: CAN buses, total messages (generated plus
	// forwarded), gateways (including a TDMA feed), TDMA backbone.
	Buses, Messages, Gateways int
	TDMA                      bool
	// WorstStuffing and BurstErrors echo the scenario's drawn analysis
	// regime.
	WorstStuffing, BurstErrors bool

	// Baseline analysis outcome.
	Converged      bool
	Iterations     int
	Schedulable    bool
	MissCount      int
	MaxUtilization float64
	Paths          int
	BoundedPaths   int

	// Network-simulation cross-validation (converged scenarios only).
	SimRuns       int
	Frames        int
	Violations    int
	Losses        int
	LossPredicted bool
	// MinMarginPct is the tightest observed path margin,
	// 100*(bound-observed)/bound over bounded traced paths; NaN when
	// nothing was observed.
	MinMarginPct float64

	// What-if perturbation outcome.
	Changes              int
	PerturbedConverged   bool
	PerturbedSchedulable bool
	// Flipped reports that the perturbation changed system-level
	// schedulability in either direction.
	Flipped bool
	// CacheHits / CacheMisses count memo-store hits (per-message plus
	// whole-report) and recomputations across both analyses.
	CacheHits, CacheMisses uint64
	// HitRate is CacheHits / (CacheHits + CacheMisses).
	HitRate float64
}

// scenarioSpanLimit bounds one scenario's scratch trace. The pipeline
// records about a dozen spans; the limit is a safety net, not a budget.
const scenarioSpanLimit = 64

// runOne executes the three-stage pipeline for one scenario. When ctx
// carries a recording trace or the configuration has a flight
// recorder, the pipeline's spans are captured into a private scratch
// trace — parallel scenarios never contend on the campaign trace — and
// spliced under ctx's current span afterwards. Rows are byte-identical
// either way: tracing only observes.
func runOne(ctx context.Context, sc *scenario.Scenario, cfg Config) (ScenarioResult, error) {
	parent := obs.TraceFrom(ctx)
	if parent == nil && cfg.Flight == nil {
		return runScenario(ctx, sc, cfg)
	}
	scratch := obs.NewTrace(obs.ID{}, scenarioSpanLimit)
	sctx := obs.ContextWithSpanID(obs.ContextWithTrace(ctx, scratch), 0)
	start := time.Now()
	row, err := runScenario(sctx, sc, cfg)
	dur := time.Since(start)
	parent.Adopt(obs.SpanIDFrom(ctx), scratch)
	cfg.Flight.Offer(fmt.Sprintf("scenario %d", sc.Index), start, dur, scratch.WireSpans())
	return row, err
}

// runScenario is the pipeline body. All stages share one what-if store
// scoped to the scenario, so the perturbed re-analysis pays only for
// what the changes can reach and the row is independent of worker
// scheduling. Spans are recorded only when ctx carries a trace; the
// untraced path pays a context lookup per stage and nothing else.
func runScenario(ctx context.Context, sc *scenario.Scenario, cfg Config) (ScenarioResult, error) {
	ctx, root := obs.StartSpan(ctx, "scenario")
	root.SetInt("index", int64(sc.Index))
	root.SetInt("seed", sc.Seed)
	defer root.End()

	row := ScenarioResult{
		Index: sc.Index, Seed: sc.Seed, MinMarginPct: math.NaN(),
		WorstStuffing: sc.WorstStuffing, BurstErrors: sc.BurstErrors,
	}

	_, bsp := obs.StartSpan(ctx, "build")
	sys, changes, err := sc.Build()
	if err != nil {
		bsp.End()
		return row, err
	}
	topo, err := netsim.FromSystem(sys)
	bsp.End()
	if err != nil {
		return row, fmt.Errorf("scenario %d: %w", sc.Index, err)
	}

	row.Buses = len(topo.Buses)
	row.TDMA = len(topo.TDMABuses) > 0
	row.Gateways = len(topo.Gateways)
	for _, b := range topo.Buses {
		row.Messages += len(b.Messages)
	}
	for _, d := range topo.TDMABuses {
		row.Messages += len(d.Messages)
	}
	root.SetInt("buses", int64(row.Buses))
	root.SetInt("messages", int64(row.Messages))

	var store cache.Store = cache.NewLRU(cfg.StoreCapacity)
	if cfg.Cache != nil {
		store = cache.NewTiered(store, cfg.Cache)
	}
	sess := whatif.NewSystemSession(sys, whatif.Options{Store: store, Workers: 1})
	tr := obs.TraceFrom(ctx)
	remote := cache.RemoteOf(cfg.Cache)
	var remoteStart cache.RemoteStats
	if tr != nil && remote != nil {
		remoteStart = remote.RemoteStats()
	}

	_, asp := obs.StartSpan(ctx, "analyze")
	base, err := sess.Analyze(cfg.MaxIterations)
	if err != nil {
		asp.End()
		return row, fmt.Errorf("scenario %d: %w", sc.Index, err)
	}
	row.Converged = base.Converged
	row.Iterations = base.Iterations
	row.Schedulable = base.AllSchedulable()
	asp.SetBool("converged", row.Converged)
	asp.SetBool("schedulable", row.Schedulable)
	asp.SetInt("iterations", int64(row.Iterations))
	asp.End()
	for _, rep := range base.BusReports {
		row.MissCount += rep.MissCount()
		if rep.Utilization > row.MaxUtilization {
			row.MaxUtilization = rep.Utilization
		}
	}
	row.Paths = len(base.Paths)
	for _, p := range base.Paths {
		if p.Latency != core.Unbounded {
			row.BoundedPaths++
		}
	}

	if row.Converged && cfg.Seeds > 0 {
		_, ssp := obs.StartSpan(ctx, "simulate")
		v, err := CrossValidate(sys, base, topo, cfg.Seeds, cfg.Duration)
		if err != nil {
			ssp.End()
			return row, fmt.Errorf("scenario %d: %w", sc.Index, err)
		}
		row.SimRuns = v.Runs
		row.Frames = v.Frames
		row.Violations = v.Violations
		row.Losses = v.Losses
		row.LossPredicted = v.LossPredicted()
		row.MinMarginPct = v.MinMarginPct()
		ssp.SetInt("runs", int64(row.SimRuns))
		ssp.SetInt("frames", int64(row.Frames))
		ssp.End()
	}

	_, psp := obs.StartSpan(ctx, "perturb")
	if err := sess.Apply(changes...); err != nil {
		psp.End()
		return row, fmt.Errorf("scenario %d: %w", sc.Index, err)
	}
	pert, err := sess.Analyze(cfg.MaxIterations)
	psp.SetInt("changes", int64(len(changes)))
	psp.End()
	if err != nil {
		return row, fmt.Errorf("scenario %d: %w", sc.Index, err)
	}
	row.Changes = len(changes)
	row.PerturbedConverged = pert.Converged
	row.PerturbedSchedulable = pert.AllSchedulable()
	row.Flipped = row.PerturbedSchedulable != row.Schedulable

	st := sess.Stats()
	row.CacheHits = st.Hits + st.ReportHits
	row.CacheMisses = st.Misses
	if total := row.CacheHits + row.CacheMisses; total > 0 {
		row.HitRate = float64(row.CacheHits) / float64(total)
	}
	root.SetInt("cache_hits", int64(row.CacheHits))
	root.SetInt("cache_misses", int64(row.CacheMisses))
	obs.RecordCache(tr, root.ID(), row.CacheHits, row.CacheMisses, st.SharedHits, cfg.Cache != nil)
	if tr != nil && remote != nil {
		obs.RecordRemote(tr, root.ID(), remoteStart, remote.RemoteStats())
	}
	return row, nil
}

// Run executes the campaign over the corpus the spec describes:
// scenarios are generated and run across the pool, rows are written by
// index, and the aggregate is folded serially — the report is
// bit-identical for any worker count. The first failing scenario (by
// index) aborts the campaign. Run is the one-shot form of a Job run to
// completion.
func Run(spec scenario.Spec, cfg Config) (*Report, error) {
	j, err := NewSpecJob(spec, cfg)
	if err != nil {
		return nil, err
	}
	return j.Run(context.Background())
}

// RunRange executes scenarios [start, start+count) of the corpus spec
// describes — a shard on a worker — and returns their rows in index
// order plus the partial fingerprint of exactly that slice. Each
// scenario is drawn as its pool slot claims it, so a shard holds one
// plan per slot, never the whole slice. Rows are byte-identical to a
// local Run of the same indices, because every scenario is independent
// (private session store, deterministic pipeline). On context
// cancellation the partial shard is discarded and the context error
// returned — shards are retried whole.
func RunRange(ctx context.Context, spec scenario.Spec, start, count int, cfg Config) ([]ScenarioResult, scenario.Partial, error) {
	spec = spec.WithDefaults()
	if err := scenario.CheckRange(spec, start, count); err != nil {
		return nil, scenario.Partial{}, fmt.Errorf("campaign: %w", err)
	}
	if count == 0 {
		return nil, scenario.Partial{}, fmt.Errorf("campaign: empty scenario range")
	}
	cfg = cfg.withDefaults()
	ctx, ssp := obs.StartSpan(ctx, "shard.run")
	ssp.SetInt("start", int64(start))
	ssp.SetInt("count", int64(count))
	defer ssp.End()
	rows := make([]ScenarioResult, count)
	leaves := make([]contenthash.Digest, count)
	err := runEach(ctx, count, cfg.Workers, func(k int) (err error) {
		rows[k], leaves[k], err = runIndex(ctx, spec, start+k, cfg)
		return err
	})
	if err != nil {
		return nil, scenario.Partial{}, err
	}
	var partial scenario.Partial
	for _, leaf := range leaves {
		partial.Add(leaf)
	}
	return rows, partial, nil
}

// runIndex draws scenario i of the (defaulted) spec, runs it and
// digests its leaf: the per-scenario body of Job.Run and RunRange.
func runIndex(ctx context.Context, spec scenario.Spec, i int, cfg Config) (ScenarioResult, contenthash.Digest, error) {
	sc, err := scenario.GenerateOne(spec, i)
	if err != nil {
		return ScenarioResult{}, contenthash.Digest{}, err
	}
	row, err := runOne(ctx, sc, cfg)
	if err != nil {
		return ScenarioResult{}, contenthash.Digest{}, err
	}
	return row, scenario.Leaf(sc), nil
}

// runEach is the campaign's one parallel loop: it runs fn(k) for every
// k in [0, n) over a pool of workers, and stops claiming new items once
// ctx is cancelled. The lowest-index failure wins deterministically;
// otherwise an interrupted loop returns the context error.
func runEach(ctx context.Context, n, workers int, fn func(k int) error) error {
	errs := make([]error, n)
	var interrupted atomic.Bool
	parallel.For(n, workers, func(_, k int) {
		if ctx.Err() != nil {
			interrupted.Store(true)
			return
		}
		errs[k] = fn(k)
	})
	if err := parallel.FirstError(errs); err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	if interrupted.Load() || ctx.Err() != nil {
		return ctx.Err()
	}
	return nil
}
