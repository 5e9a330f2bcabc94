package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/distrib"
	"repro/internal/scenario"
)

// fleetSize is the number of in-process shard workers, one per core of
// the 2-core reference host.
const fleetSize = 2

// setupSamples is how often the distrib set-up is repeated; it takes
// about a millisecond, so only a median of many samples repeats.
const setupSamples = 101

// workerMeter is the harness's middleware around one worker's
// Handler(): it times shard requests and the intervals in which the
// worker executes at least one shard.
type workerMeter struct {
	mu       sync.Mutex
	inflight int
	since    time.Time
	busy     time.Duration
	shards   int
	inside   time.Duration
}

func (m *workerMeter) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != distrib.ShardPath {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		m.mu.Lock()
		if m.inflight == 0 {
			m.since = start
		}
		m.inflight++
		m.mu.Unlock()
		h.ServeHTTP(w, r)
		end := time.Now()
		m.mu.Lock()
		m.inflight--
		if m.inflight == 0 {
			m.busy += end.Sub(m.since)
		}
		m.shards++
		m.inside += end.Sub(start)
		m.mu.Unlock()
	})
}

// fleet is a set of running in-process workers on loopback listeners.
type fleet struct {
	addrs   []string
	servers []*http.Server
	done    sync.WaitGroup
}

// startFleet starts fleetSize workers at their CLI defaults, each
// Handler() passed through wrap when it is set, and returns once every
// worker answers its health check.
func startFleet(wrap func(i int, h http.Handler) http.Handler) (*fleet, error) {
	f := &fleet{}
	for i := 0; i < fleetSize; i++ {
		var h http.Handler = distrib.NewWorker(distrib.WorkerConfig{}).Handler()
		if wrap != nil {
			h = wrap(i, h)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.stop()
			return nil, err
		}
		srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
		f.servers = append(f.servers, srv)
		f.addrs = append(f.addrs, "http://"+ln.Addr().String())
		f.done.Add(1)
		go func() {
			defer f.done.Done()
			srv.Serve(ln)
		}()
	}
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	for _, addr := range f.addrs {
		resp, err := client.Get(addr + distrib.HealthPath)
		if err != nil {
			f.stop()
			return nil, err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			f.stop()
			return nil, fmt.Errorf("worker %s: health %s", addr, resp.Status)
		}
	}
	return f, nil
}

// stop closes every worker and waits for its server to return.
func (f *fleet) stop() {
	for _, s := range f.servers {
		s.Close()
	}
	f.done.Wait()
}

// distribCampaign runs one distributed campaign over the fleet, the way
// `symtago campaign -workers-addr` does, and times it from the job's
// creation to the folded report.
func distribCampaign(ctx context.Context, spec scenario.Spec, f *fleet, onEvent func(distrib.Event)) (*campaign.Report, distrib.Stats, time.Duration, error) {
	client := &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()}
	defer client.CloseIdleConnections()
	start := time.Now()
	job, err := campaign.NewSpecJob(spec, campaign.Config{})
	if err != nil {
		return nil, distrib.Stats{}, 0, err
	}
	rep, st, err := distrib.RunStats(ctx, job, distrib.Options{
		Workers: f.addrs, Client: client, OnEvent: onEvent,
	})
	return rep, st, time.Since(start), err
}

// runDistrib fans a 1536-scenario default-spec corpus out with
// campaign.NewSpecJob and distrib.RunStats over two in-process workers
// on loopback HTTP, at the CLI's default shard size and pipeline depth:
// the only workload that runs the shard wire, gzip and the
// partial-fingerprint fold. Set-up is starting the workers; every timed
// repetition gets a fresh fleet.
func runDistrib(opts options, out *outcome) error {
	spec := scenario.Spec{Seed: opts.seed, Count: opts.size(distribCount)}
	// The local run is the reference the folded reports must match; it
	// also warms the process up.
	local, _, _, err := localCampaign(context.Background(), spec, campaign.Config{})
	if err != nil {
		return err
	}
	want := reportText(local)

	var setups []float64
	for i := 0; i < setupSamples; i++ {
		start := time.Now()
		f, err := startFleet(nil)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		f.stop()
	}
	out.metrics["setup_s"] = median(setups)

	var keep *fleet
	pass := func(traced bool, rows []string) (*batchRun, error) {
		b := newBatchRun(traced, rows)
		var shardNanos []float64
		var stats distrib.Stats
		var idle, span time.Duration
		var shards int
		var inside time.Duration
		for b.more(opts) {
			var meters []*workerMeter
			var wrap func(int, http.Handler) http.Handler
			var onEvent func(distrib.Event)
			if traced {
				meters = []*workerMeter{{}, {}}
				wrap = func(i int, h http.Handler) http.Handler { return meters[i].wrap(h) }
				onEvent = func(e distrib.Event) {
					if e.Type == distrib.EventShardDone {
						shardNanos = append(shardNanos, float64(e.ElapsedNS))
					}
				}
			}
			f, err := startFleet(wrap)
			if err != nil {
				return nil, err
			}
			ctx, tr := tracedContext(traced)
			rep, st, d, err := distribCampaign(ctx, spec, f, onEvent)
			if keep != nil {
				keep.stop()
			}
			keep = f
			if err != nil {
				return nil, err
			}
			out.check(checkReport(want, rep))
			out.check(b.record(rep, d, tr))
			stats.Shards += st.Shards
			stats.Retries += st.Retries
			stats.BytesOnWire += st.BytesOnWire
			for _, m := range meters {
				m.mu.Lock()
				if m.inflight > 0 {
					// A handler may still be returning after its last byte.
					m.busy += time.Since(m.since)
				}
				idle += d - m.busy
				span += d
				shards += m.shards
				inside += m.inside
				m.mu.Unlock()
			}
		}
		if traced {
			m := out.metrics
			runs := float64(b.rows.runs)
			m["distrib.shard_ms"] = ratio(sum(shardNanos)/1e6, float64(len(shardNanos)))
			m["distrib.worker_ms"] = ratio(ms(inside), float64(shards))
			m["distrib.wire_ms"] = m["distrib.shard_ms"] - m["distrib.worker_ms"]
			m["distrib.worker_idle_ratio"] = ratio(float64(idle), float64(span))
			m["distrib.wire_bytes"] = float64(stats.BytesOnWire) / runs
			m["distrib.shards"] = float64(stats.Shards) / runs
			m["distrib.retries"] = float64(stats.Retries) / runs
			m["scenario.generate_ms"] = ms(b.spans.wall["corpus.range"]) / runs
		}
		return b, nil
	}
	defer func() {
		if keep != nil {
			keep.stop()
		}
	}()

	settle()
	mem := startMem()
	b, err := pass(false, nil)
	if err != nil {
		return err
	}
	mem.record(out.metrics)
	// The last fleet is still up, as a deployment would be.
	out.metrics["live_heap_mb"] = liveHeapMB()
	b.endToEnd(out.metrics)
	b.count(out)
	b.report(opts.log, "distrib")
	if !opts.trace {
		return nil
	}

	settle()
	tb, err := pass(true, b.want)
	if err != nil {
		return err
	}
	tb.ledger(out.metrics, fleetSize*distrib.DefaultPipelineDepth*runtime.GOMAXPROCS(0))
	out.metrics["obs.overhead_pct"] = overheadPct(b.throughput(), tb.throughput())
	return nil
}
