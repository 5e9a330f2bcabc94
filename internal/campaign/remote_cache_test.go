package campaign

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/cacheserver"
)

// startCacheServer runs a real cacheserver over a temp disk store and
// returns a Remote factory dialing it through transport (nil = direct).
func startCacheServer(t *testing.T) (*cacheserver.Server, string) {
	t.Helper()
	disk, err := cache.NewDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(disk.Close)
	srv := cacheserver.New(disk)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts.URL
}

func dialRemote(t *testing.T, url string, transport http.RoundTripper) *cache.Remote {
	t.Helper()
	cfg := cache.RemoteConfig{BaseURL: url, Backoff: time.Millisecond}
	if transport != nil {
		cfg.Client = &http.Client{Transport: transport}
	}
	remote, err := cache.NewRemote(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return remote
}

// TestCampaignRemoteTierDeterministic runs the same campaign over a
// fleet-shared cacheserver with worker pools of 1, 4 and 8: every
// report — session cache counters included, thanks to the pinned-stats
// contract — must be byte-identical to the cacheless reference, cold
// and warm alike, and the warm passes must actually be served by the
// remote tier.
func TestCampaignRemoteTierDeterministic(t *testing.T) {
	spec := jobSpec()
	base := Config{Workers: 2, Seeds: 1, Duration: 50e6}
	want, err := Run(spec, base)
	if err != nil {
		t.Fatal(err)
	}

	srv, url := startCacheServer(t)
	for _, workers := range []int{1, 4, 8} {
		remote := dialRemote(t, url, nil)
		cfg := base
		cfg.Workers = workers
		// The production stack of a diskless worker: private L1s over
		// the fleet tier.
		cfg.Cache = remote
		rep, err := Run(spec, cfg)
		if err != nil {
			t.Fatal(err)
		}
		remote.Close() // flush write-behind before the next pool size
		if canonical(t, rep) != canonical(t, want) {
			t.Fatalf("workers=%d: remote-tier report differs from cacheless run", workers)
		}
	}
	if st := srv.Disk().Stats(); st.Entries == 0 {
		t.Fatal("no records reached the cacheserver")
	}
	// A warm rerun on a fresh client is served by the fleet.
	remote := dialRemote(t, url, nil)
	defer remote.Close()
	cfg := base
	cfg.Cache = remote
	rep, err := Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if canonical(t, rep) != canonical(t, want) {
		t.Fatal("warm remote-tier report differs from cacheless run")
	}
	if rs := remote.RemoteStats(); rs.Hits == 0 {
		t.Fatalf("warm rerun never hit the remote tier: %+v", rs)
	}
}

// TestCampaignRemoteTierFaulty replays the campaign through every
// fault schedule the harness offers, injected at the HTTP layer
// between client and real server: reports stay byte-identical — a
// degraded fleet tier only ever costs recomputation — and the breaker
// degrades the worst case to local-only instead of hammering a dead
// peer.
func TestCampaignRemoteTierFaulty(t *testing.T) {
	spec := jobSpec()
	base := Config{Workers: 4, Seeds: 1, Duration: 50e6}
	want, err := Run(spec, base)
	if err != nil {
		t.Fatal(err)
	}

	_, url := startCacheServer(t)
	// Warm the fleet tier with converged records first, so fault
	// schedules have real traffic to corrupt.
	warm := dialRemote(t, url, nil)
	cfg := base
	cfg.Cache = warm
	if _, err := Run(spec, cfg); err != nil {
		t.Fatal(err)
	}
	warm.Close()

	for _, tc := range []struct {
		name  string
		sched cache.Schedule
	}{
		{"seeded-errors", cache.Seeded(3, 0.3, cache.FaultError)},
		{"seeded-corrupt", cache.Seeded(4, 0.3, cache.FaultCorrupt)},
		{"seeded-stale", cache.Seeded(5, 0.3, cache.FaultStale)},
		{"always-error", cache.Always(cache.FaultError)},
		{"flapping", cache.EveryN(2, cache.FaultError)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ft := &cache.FaultyTransport{Sched: tc.sched}
			remote := dialRemote(t, url, ft)
			defer remote.Close()
			cfg := base
			cfg.Cache = remote
			rep, err := Run(spec, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if canonical(t, rep) != canonical(t, want) {
				t.Fatalf("%s: faulty remote tier changed the report", tc.name)
			}
			rs := remote.RemoteStats()
			if ft.Injected() == 0 {
				t.Fatal("schedule injected nothing")
			}
			if tc.name == "always-error" && rs.Breaker == cache.BreakerClosed && rs.Degraded == 0 {
				t.Fatalf("dead peer never tripped the breaker: %+v", rs)
			}
		})
	}
}

// TestCampaignThreeTierStack composes the full production stack —
// private LRU over local disk over the fleet tier — and proves the
// report byte-identical with a cold disk, a warm disk, and a cold disk
// plus warm fleet.
func TestCampaignThreeTierStack(t *testing.T) {
	spec := jobSpec()
	base := Config{Workers: 4, Seeds: 1, Duration: 50e6}
	want, err := Run(spec, base)
	if err != nil {
		t.Fatal(err)
	}
	_, url := startCacheServer(t)

	// Cold everything.
	disk1, err := cache.NewDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(disk1.Close)
	r1 := dialRemote(t, url, nil)
	cfg := base
	cfg.Cache = cache.NewTiered(disk1, r1)
	rep, err := Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r1.Close()
	if canonical(t, rep) != canonical(t, want) {
		t.Fatal("cold three-tier report differs")
	}

	// Fresh disk, warm fleet: the remote must backfill the new node.
	disk2, err := cache.NewDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(disk2.Close)
	r2 := dialRemote(t, url, nil)
	defer r2.Close()
	cfg.Cache = cache.NewTiered(disk2, r2)
	rep, err = Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if canonical(t, rep) != canonical(t, want) {
		t.Fatal("warm-fleet three-tier report differs")
	}
	rs := r2.RemoteStats()
	if rs.Hits == 0 {
		t.Fatalf("fresh node never served from the fleet: %+v", rs)
	}
	// Remote hits were promoted onto the new node's disk.
	if ds := disk2.Stats(); ds.Entries == 0 {
		t.Fatal("fleet hits not promoted onto the local disk")
	}
}
