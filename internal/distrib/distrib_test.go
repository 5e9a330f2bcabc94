package distrib

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/campaign"
	"repro/internal/scenario"
)

func testSpec() scenario.Spec {
	return scenario.Spec{Seed: 11, Count: 12}
}

func testConfig() campaign.Config {
	return campaign.Config{Workers: 2, Seeds: 1, Duration: 50e6}
}

func canonical(t *testing.T, r *campaign.Report) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(r.Render())
	if err := r.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// startWorkers brings up n in-process shard workers and returns their
// base URLs.
func startWorkers(t *testing.T, n int, cfg WorkerConfig) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		srv := httptest.NewServer(NewWorker(cfg).Handler())
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	return urls
}

// TestDistribMatchesLocal is the core identity: the folded report of a
// distributed run equals the local run byte for byte, across shard
// sizes that do and do not divide the corpus.
func TestDistribMatchesLocal(t *testing.T) {
	spec := testSpec()
	cfg := testConfig()
	want, err := campaign.Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	urls := startWorkers(t, 3, WorkerConfig{Workers: 1})
	for _, shard := range []int{1, 5, 100} {
		job, err := campaign.NewSpecJob(spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := RunStats(context.Background(), job, Options{Workers: urls, ShardSize: shard})
		if err != nil {
			t.Fatalf("shard size %d: %v", shard, err)
		}
		if canonical(t, got) != canonical(t, want) {
			t.Fatalf("shard size %d: distributed report differs from local run", shard)
		}
	}
}

// overlapMeter wraps a worker's handler and records the most shard
// requests it ever held at once.
type overlapMeter struct {
	h        http.Handler
	mu       sync.Mutex
	inflight int
	max      int
	served   int
}

func (m *overlapMeter) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	m.mu.Lock()
	m.inflight++
	m.max = max(m.max, m.inflight)
	m.served++
	m.mu.Unlock()
	// Hold the request briefly so that a second request dispatched
	// without waiting for this one's answer is seen to overlap it.
	time.Sleep(5 * time.Millisecond)
	m.h.ServeHTTP(rw, r)
	m.mu.Lock()
	m.inflight--
	m.mu.Unlock()
}

// TestDistribOneShardInFlightPerWorker: the coordinator sends a worker
// its next shard only after the previous one is answered, so no worker
// ever holds two shard requests at once.
func TestDistribOneShardInFlightPerWorker(t *testing.T) {
	spec := testSpec()
	cfg := testConfig()
	want, err := campaign.Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	meters := make([]*overlapMeter, 2)
	urls := make([]string, len(meters))
	for i := range meters {
		meters[i] = &overlapMeter{h: NewWorker(WorkerConfig{Workers: 1}).Handler()}
		srv := httptest.NewServer(meters[i])
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	job, err := campaign.NewSpecJob(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := RunStats(context.Background(), job, Options{Workers: urls, ShardSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if canonical(t, got) != canonical(t, want) {
		t.Fatal("distributed report differs from local run")
	}
	served := 0
	for i, m := range meters {
		if m.max != 1 {
			t.Errorf("worker %d held at most %d shard requests at once, want 1", i, m.max)
		}
		served += m.served
	}
	if served != stats.Shards || served != spec.Count {
		t.Fatalf("workers served %d requests for %d shards of a %d-scenario corpus", served, stats.Shards, spec.Count)
	}
}

// killableWorker is a worker whose handler starts failing on demand,
// simulating a worker lost mid-campaign.
type killableWorker struct {
	h      http.Handler
	killed atomic.Bool
}

func (k *killableWorker) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	if k.killed.Load() {
		http.Error(rw, "worker killed", http.StatusInternalServerError)
		return
	}
	k.h.ServeHTTP(rw, r)
}

// TestDistribSurvivesWorkerKill kills one of two workers after its
// first completed shard: the survivor absorbs the retried shards and
// the folded report is still byte-identical to the local run.
func TestDistribSurvivesWorkerKill(t *testing.T) {
	spec := testSpec()
	cfg := testConfig()
	want, err := campaign.Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// The survivor answers nothing until the killed victim has refused a
	// shard. Otherwise the survivor could drain the queue while the
	// victim finishes its last shard, and the victim would never be sent
	// work after its kill, so it could not be seen to fail.
	victim := &killableWorker{h: NewWorker(WorkerConfig{Workers: 1}).Handler()}
	refused := make(chan struct{})
	var refusedOnce sync.Once
	srvVictim := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if victim.killed.Load() {
			refusedOnce.Do(func() { close(refused) })
		}
		victim.ServeHTTP(rw, r)
	}))
	defer srvVictim.Close()
	survivor := NewWorker(WorkerConfig{Workers: 1}).Handler()
	srvSurvivor := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		select {
		case <-refused:
		case <-r.Context().Done():
			return
		}
		survivor.ServeHTTP(rw, r)
	}))
	defer srvSurvivor.Close()

	job, err := campaign.NewSpecJob(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var dropped, failed atomic.Int64
	got, stats, err := RunStats(context.Background(), job, Options{
		Workers:   []string{srvVictim.URL, srvSurvivor.URL},
		ShardSize: 2,
		DropAfter: 1,
		OnEvent: func(e Event) {
			switch e.Type {
			case EventShardDone:
				if e.Worker == srvVictim.URL {
					victim.killed.Store(true)
				}
			case EventShardFailed:
				failed.Add(1)
			case EventWorkerDropped:
				dropped.Add(1)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if canonical(t, got) != canonical(t, want) {
		t.Fatal("report after worker kill differs from local run")
	}
	if victim.killed.Load() && dropped.Load() != 1 {
		t.Fatalf("killed worker was not dropped (dropped=%d failed=%d)", dropped.Load(), failed.Load())
	}
	// The run's statistics fold the same events the callback saw: every
	// failed attempt was dispatched again and nothing is left in flight.
	if stats.DroppedWorkers != int(dropped.Load()) || stats.Retries != int(failed.Load()) ||
		stats.Redispatched != stats.Retries || stats.Shards != spec.Count/2 || stats.InFlight() != 0 {
		t.Fatalf("stats %+v (in flight %d) after %d drops and %d failures",
			stats, stats.InFlight(), dropped.Load(), failed.Load())
	}
}

// TestStatsAdd folds one shard's failed attempt, its retry and a
// worker drop: each event type moves only its own counts.
func TestStatsAdd(t *testing.T) {
	r := campaign.ShardRange{Start: 0, Count: 2}
	var st Stats
	for _, e := range []Event{
		{Type: EventDispatch, Shard: r, Attempt: 1},
		{Type: EventShardFailed, Shard: r, Attempt: 1, ElapsedNS: 7},
		{Type: EventWorkerDropped, Shard: r, Attempt: 1},
		{Type: EventDispatch, Shard: r, Attempt: 2},
	} {
		st.Add(e)
	}
	if st.InFlight() != 1 {
		t.Fatalf("in flight %d after a retry's dispatch, want 1", st.InFlight())
	}
	st.Add(Event{Type: EventShardDone, Shard: r, Attempt: 2, ElapsedNS: 5e6, Bytes: 300})
	want := Stats{Dispatched: 2, Redispatched: 1, Shards: 1, Retries: 1, DroppedWorkers: 1,
		BytesOnWire: 300, Latency: 5 * time.Millisecond}
	if st != want || st.InFlight() != 0 {
		t.Fatalf("stats %+v (in flight %d), want %+v", st, st.InFlight(), want)
	}
}

// TestDistribExhaustedAttempts drives a permanently failing worker
// pair: the run fails, but the job survives and a local Run resumes to
// the identical report — distributed execution never strands a
// campaign.
func TestDistribExhaustedAttempts(t *testing.T) {
	spec := testSpec()
	cfg := testConfig()
	want, err := campaign.Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}

	dead := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		http.Error(rw, "corrupted worker", http.StatusInternalServerError)
	}))
	defer dead.Close()

	job, err := campaign.NewSpecJob(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunStats(context.Background(), job, Options{
		Workers: []string{dead.URL}, ShardSize: 4, MaxAttempts: 2, DropAfter: 10,
	}); err == nil {
		t.Fatal("run over a dead worker succeeded")
	}
	got, err := job.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if canonical(t, got) != canonical(t, want) {
		t.Fatal("local resume after failed distributed run differs")
	}
}

// TestDistribAllWorkersDropped checks the no-survivors failure mode.
func TestDistribAllWorkersDropped(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		http.Error(rw, "no", http.StatusInternalServerError)
	}))
	defer dead.Close()
	job, err := campaign.NewSpecJob(testSpec(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = RunStats(context.Background(), job, Options{
		Workers: []string{dead.URL}, ShardSize: 4, MaxAttempts: 100, DropAfter: 2,
	})
	if err == nil || !strings.Contains(err.Error(), "dropped") {
		t.Fatalf("expected all-workers-dropped failure, got %v", err)
	}
}

// TestDistribWorkerWarmCache reruns a campaign against workers backed
// by a shared disk level: the rerun is served predominantly from L2
// and the report stays byte-identical.
func TestDistribWorkerWarmCache(t *testing.T) {
	spec := testSpec()
	cfg := testConfig()
	want, err := campaign.Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := cache.NewDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(disk.Close)
	urls := startWorkers(t, 2, WorkerConfig{Workers: 1, Cache: disk})

	run := func() *campaign.Report {
		job, err := campaign.NewSpecJob(spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, _, err := RunStats(context.Background(), job, Options{Workers: urls, ShardSize: 3})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	cold := run()
	afterCold := disk.Stats()
	warm := run()
	afterWarm := disk.Stats()

	if canonical(t, cold) != canonical(t, want) || canonical(t, warm) != canonical(t, want) {
		t.Fatal("shared-cache distributed reports differ from local run")
	}
	hits := afterWarm.Hits - afterCold.Hits
	misses := afterWarm.Misses - afterCold.Misses
	if total := hits + misses; total == 0 || float64(hits)/float64(total) < 0.8 {
		t.Fatalf("warm rerun L2 hit rate %d/%d below 80%%", hits, hits+misses)
	}
}

// TestDistribVersionSkew checks both wire directions refuse a version
// mismatch: the worker answers any version but WireVersion — older or
// newer — with 400, and the coordinator refuses a skewed response.
func TestDistribVersionSkew(t *testing.T) {
	w := httptest.NewServer(NewWorker(WorkerConfig{}).Handler())
	defer w.Close()

	for _, v := range []int{1, 99} {
		resp, err := http.Post(w.URL+ShardPath, "application/json",
			strings.NewReader(fmt.Sprintf(`{"version":%d}`, v)))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		want := fmt.Sprintf("shard wire version %d, want 2", v)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), want) {
			t.Fatalf("version %d: got %s %q, want 400 %q", v, resp.Status, msg, want)
		}
	}

	// Coordinator rejects a skewed response.
	skewed := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		rw.Write([]byte(`{"version":99,"rows":[]}`))
	}))
	defer skewed.Close()
	job, err := campaign.NewSpecJob(testSpec(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunStats(context.Background(), job, Options{
		Workers: []string{skewed.URL}, MaxAttempts: 1,
	}); err == nil || !strings.Contains(err.Error(), "wire version") {
		t.Fatalf("expected wire version failure, got %v", err)
	}
}

// TestDistribShardSizeBounded: a shard request names its own corpus
// spec, so the worker bounds its count before generating anything, and
// the coordinator refuses a shard size no worker accepts.
func TestDistribShardSizeBounded(t *testing.T) {
	w := httptest.NewServer(NewWorker(WorkerConfig{}).Handler())
	defer w.Close()
	ref, err := campaign.NewSpecRef(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	// The range also lies outside its 12-scenario corpus, so a worker
	// without the size check answers 400 too, but with the generator's
	// range error and no allocation either way.
	body, err := json.Marshal(ShardRequest{
		Version: WireVersion, Corpus: ref, Count: campaign.MaxShardSize + 1,
		Config: NewShardConfig(testConfig()),
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(w.URL+ShardPath, "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	want := fmt.Sprintf("exceeds the maximum %d", campaign.MaxShardSize)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), want) {
		t.Fatalf("oversized shard: got %s %q, want 400 %q", resp.Status, msg, want)
	}

	// Ranges whose start+count overflows are refused before any
	// scenario is drawn or any row allocated.
	for _, r := range []campaign.ShardRange{{Start: math.MaxInt, Count: 1}, {Start: 1, Count: math.MaxInt}} {
		body, err := json.Marshal(ShardRequest{
			Version: WireVersion, Corpus: ref, Start: r.Start, Count: r.Count,
			Config: NewShardConfig(testConfig()),
		})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(w.URL+ShardPath, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("range %+v: got %s, want 400", r, resp.Status)
		}
	}

	job, err := campaign.NewSpecJob(testSpec(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunStats(context.Background(), job, Options{
		Workers: []string{w.URL}, ShardSize: campaign.MaxShardSize + 1,
	}); err == nil || !strings.Contains(err.Error(), "exceeds the maximum") {
		t.Fatalf("coordinator accepted shard size %d: %v", campaign.MaxShardSize+1, err)
	}
}

// hostileSpecs are corpus specs the generator could not run correctly,
// or that cost one scenario without bound, keyed by the spec key whose
// limit refuses them.
var hostileSpecs = map[string]string{
	"max_messages":       "count = 1\nmin_messages = 1000\nmax_messages = 1000\n",
	"flows_max":          "count = 1\nmin_buses = 2\nmax_buses = 2\nmin_messages = 200\nmax_messages = 200\nflows_min = 150\nflows_max = 150\n",
	"gateway_period_min": "count = 1\ngateway_period_min = \"1ns\"\ngateway_period_max = \"1ns\"\n",
	"max_buses":          "count = 1\nmin_buses = 2000\nmax_buses = 2000\n",
	"max_changes":        "count = 1\nmax_changes = 2000000\n",
}

// hostileShard encodes a one-scenario shard request of spec text.
func hostileShard(tb testing.TB, text string) []byte {
	tb.Helper()
	body, err := json.Marshal(ShardRequest{
		Version: WireVersion, Corpus: campaign.CorpusRef{Version: 1, Spec: text},
		Count: 1, Config: NewShardConfig(testConfig()),
	})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// TestDistribSpecLimits: a shard request carries its own corpus spec,
// so the worker refuses a spec beyond the generation limits with 400,
// naming the spec key, before it generates anything.
func TestDistribSpecLimits(t *testing.T) {
	w := httptest.NewServer(NewWorker(WorkerConfig{}).Handler())
	defer w.Close()
	for key, text := range hostileSpecs {
		resp, err := http.Post(w.URL+ShardPath, "application/json", bytes.NewReader(hostileShard(t, text)))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), key) {
			t.Errorf("%s: got %s %q, want 400 naming %s", key, resp.Status, msg, key)
		}
	}
}

// TestDistribSimulationBounded: a shard request also names its own
// simulation work, so the worker refuses more seeds or simulated time
// than campaign.CheckSimulation allows before running anything, and the
// coordinator refuses such a job before dispatch.
func TestDistribSimulationBounded(t *testing.T) {
	var hits atomic.Int64
	worker := NewWorker(WorkerConfig{}).Handler()
	w := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		worker.ServeHTTP(rw, r)
	}))
	defer w.Close()
	ref, err := campaign.NewSpecRef(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]campaign.Config{
		"seeds":    {Seeds: campaign.MaxSimSeeds + 1},
		"duration": {Duration: campaign.MaxSimDuration + 1},
	} {
		body, err := json.Marshal(ShardRequest{
			Version: WireVersion, Corpus: ref, Count: 1, Config: NewShardConfig(cfg),
		})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(w.URL+ShardPath, "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "the maximum") {
			t.Errorf("%s: got %s %q, want 400", name, resp.Status, msg)
		}

		job, err := campaign.NewSpecJob(testSpec(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		before := hits.Load()
		if _, _, err := RunStats(context.Background(), job, Options{Workers: []string{w.URL}}); err == nil ||
			!strings.Contains(err.Error(), "the maximum") {
			t.Errorf("%s: coordinator accepted %+v: %v", name, job.Config(), err)
		}
		if n := hits.Load() - before; n != 0 {
			t.Errorf("%s: coordinator dispatched %d requests", name, n)
		}
	}
}
