package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/campaign"
	"repro/internal/distrib"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// cmdCampaign runs a population-scale study: generate a scenario
// corpus, fan it across the worker pool — or, with -workers-addr,
// across remote `symtago worker` processes — and report aggregate
// statistics (plus optional per-scenario CSV and corpus listing).
// The report is byte-identical for any worker count, shard size or
// mid-campaign worker failure.
func cmdCampaign(args []string) error {
	fs := newFlagSet("campaign")
	n := fs.Int("n", 0, "corpus size (0 = spec default, 500)")
	seed := fs.Int64("seed", 1, "corpus seed")
	specPath := fs.String("spec", "", "corpus spec file (TOML subset; flags override)")
	workers := workersFlag(fs)
	seeds := fs.Int("seeds", 0, "simulation runs per scenario (0 = default 2, negative disables)")
	duration := fs.Duration("duration", 0, "simulated span per run (0 = default 200ms)")
	csvPath := fs.String("csv", "", "write per-scenario results as CSV here")
	corpusPath := fs.String("corpus", "", "write the canonical corpus listing here")
	quick := fs.Bool("quick", false, "64-scenario corpus with a 100ms simulation span")
	workersAddr := fs.String("workers-addr", "", "comma-separated worker base URLs; run the campaign distributed")
	shard := shardFlag(fs)
	shardTimeout := fs.Duration("shard-timeout", 0, "per-attempt shard deadline (0 = 2m)")
	cacheDir := fs.String("cache-dir", "", "local runs: on-disk second-level result cache (empty = memory only)")
	cacheBytes := fs.Int64("cache-bytes", 0, "disk cache budget in bytes (0 = 256 MiB)")
	remoteCache := remoteCacheFlag(fs)
	traceOut := fs.String("trace-out", "", "record the whole run at full rate and write Chrome trace_event JSON here")
	flightN := fs.Int("flight", 0, "keep the N slowest scenarios' span trees; SIGQUIT dumps them as JSON to stderr (0 = off)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if err := checkShard("campaign", *shard); err != nil {
		return err
	}

	var spec scenario.Spec
	if *specPath != "" {
		f, err := os.Open(*specPath)
		if err != nil {
			return err
		}
		parsed, perr := scenario.ParseSpec(f)
		f.Close()
		if perr != nil {
			return usageErrf("%v", perr)
		}
		spec = parsed
	}
	if *n != 0 {
		if *n < 0 {
			return usageErrf("campaign: -n must be positive, got %d", *n)
		}
		spec.Count = *n
	}
	seedSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			seedSet = true
		}
	})
	// The documented default seed (1) also applies when a spec file
	// omits the seed key.
	if seedSet || spec.Seed == 0 {
		spec.Seed = *seed
	}
	// An out-of-range value is a usage error whether the spec file or a
	// flag set it, so the merged spec is checked before any work.
	if err := spec.WithDefaults().Validate(); err != nil {
		return usageErrf("campaign: %v", err)
	}

	cfg := campaign.Config{
		Workers:  *workers,
		Seeds:    *seeds,
		Duration: *duration,
	}
	shared, err := cache.OpenShared(*cacheDir, *cacheBytes, *remoteCache)
	if err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	// Close flushes the remote write-behind queue, so a one-shot
	// campaign's results reach the fleet before the process exits.
	defer shared.Close()
	cfg.Cache = shared.Store

	// -trace-out records this one run at full rate into a standalone
	// trace; -flight keeps the N slowest scenarios' span trees. Neither
	// changes a single report byte — tracing only observes.
	ctx := context.Background()
	var tr *obs.Trace
	if *traceOut != "" {
		tr = obs.NewTrace(obs.NewID(), 0)
		ctx = obs.ContextWithTrace(ctx, tr)
	}
	var flight *obs.FlightRecorder
	if *flightN > 0 {
		flight = obs.NewFlightRecorder(*flightN)
		cfg.Flight = flight
		quitCh := make(chan os.Signal, 1)
		signal.Notify(quitCh, syscall.SIGQUIT)
		defer signal.Stop(quitCh)
		go func() {
			for range quitCh {
				fmt.Fprintln(os.Stderr, "campaign: flight recorder dump (SIGQUIT)")
				flight.WriteJSON(os.Stderr)
				fmt.Fprintln(os.Stderr)
			}
		}()
	}

	start := time.Now()
	var rep *campaign.Report
	var corpus *scenario.Corpus
	if addrs := splitAddrs(*workersAddr); len(addrs) > 0 {
		rep, corpus, err = runDistributed(ctx, spec, cfg, distrib.Options{
			Workers: addrs, ShardSize: *shard, ShardTimeout: *shardTimeout,
		}, *quick, *corpusPath != "")
	} else {
		var ran scenario.Spec
		rep, ran, err = experiments.RunCampaign(experiments.CampaignParams{
			Spec: spec, Config: cfg, Quick: *quick, Context: ctx,
		})
		if err == nil && *corpusPath != "" {
			corpus, err = scenario.Generate(ran)
		}
	}
	if tr != nil {
		// Written even when the run failed: a trace of the failure is
		// exactly when you want one.
		if werr := writeFile(*traceOut, tr.WriteChrome); werr != nil && err == nil {
			err = werr
		} else if werr == nil {
			fmt.Printf("trace (%d spans) written to %s\n", tr.Len(), *traceOut)
		}
	}
	if err != nil {
		return err
	}
	if flight != nil {
		for i, e := range flight.Snapshot() {
			if i >= 3 {
				break
			}
			fmt.Printf("slowest %d: %s (%v)\n", i+1, e.Label, time.Duration(e.DurNS).Round(time.Microsecond))
		}
	}
	if shared.Disk != nil {
		st := shared.Disk.Stats()
		fmt.Printf("disk cache: %d entries, %d B, %d hits / %d misses\n",
			st.Entries, st.Bytes, st.Hits, st.Misses)
	}
	if shared.Remote != nil {
		rs := shared.Remote.RemoteStats()
		fmt.Printf("remote cache: %d hits / %d misses, %d errors, breaker %s\n",
			rs.Hits, rs.Misses, rs.Errors, rs.Breaker)
	}
	fmt.Println(rep.Render())
	fmt.Printf("wall time %v\n", time.Since(start).Round(time.Millisecond))

	if *corpusPath != "" {
		if err := writeFile(*corpusPath, corpus.Encode); err != nil {
			return err
		}
		fmt.Printf("corpus listing written to %s\n", *corpusPath)
	}
	if *csvPath != "" {
		if err := writeFile(*csvPath, rep.WriteCSV); err != nil {
			return err
		}
		fmt.Printf("per-scenario CSV written to %s\n", *csvPath)
	}
	if rep.Violations > 0 {
		return fmt.Errorf("%d observations exceeded compositional bounds", rep.Violations)
	}
	return nil
}

// runDistributed fans the campaign out over remote workers: each shard
// travels as (spec, range), workers generate only their own slice, and
// the coordinator folds the returned partial fingerprints instead of
// materializing the corpus — the report still matches a local run
// byte for byte. Only when the caller needs the corpus listing
// (needCorpus) is the corpus generated here, and then its fingerprint
// is pinned, so shards that drifted from the listing fail the run.
// SIGINT/SIGTERM cancels the coordinator; workers abandon the
// cancelled shards at their next scenario boundary.
func runDistributed(ctx context.Context, spec scenario.Spec, cfg campaign.Config, opts distrib.Options, quick, needCorpus bool) (*campaign.Report, *scenario.Corpus, error) {
	if quick {
		if spec.Count == 0 {
			spec.Count = 64
		}
		if cfg.Duration == 0 {
			cfg.Duration = 100 * time.Millisecond
		}
	}
	job, err := campaign.NewSpecJob(spec, cfg)
	if err != nil {
		return nil, nil, err
	}
	var corpus *scenario.Corpus
	if needCorpus {
		if corpus, err = scenario.Generate(job.Spec()); err != nil {
			return nil, nil, fmt.Errorf("campaign: %w", err)
		}
		job.SetExpectedFingerprint(corpus.Fingerprint().String())
	}

	ctx, stop := signal.NotifyContext(ctx, syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	opts.OnEvent = func(e distrib.Event) {
		switch e.Type {
		case distrib.EventShardDone:
			fmt.Fprintf(os.Stderr, "campaign: shard [%d,%d) done on %s (%d/%d scenarios)\n",
				e.Shard.Start, e.Shard.End(), e.Worker, e.Done, e.Total)
		case distrib.EventShardFailed:
			fmt.Fprintf(os.Stderr, "campaign: shard [%d,%d) attempt %d failed on %s: %s\n",
				e.Shard.Start, e.Shard.End(), e.Attempt, e.Worker, e.Err)
		case distrib.EventWorkerDropped:
			fmt.Fprintf(os.Stderr, "campaign: worker %s dropped after repeated failures\n", e.Worker)
		}
	}
	rep, stats, err := distrib.RunStats(ctx, job, opts)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(os.Stderr, "campaign: distributed: %d shards, %d retries, %d workers dropped, %d B on wire\n",
		stats.Shards, stats.Retries, stats.DroppedWorkers, stats.BytesOnWire)
	return rep, corpus, nil
}

// writeFile creates path and streams write into it.
func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
