package cache

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeCacheServer is an in-memory stand-in for internal/cacheserver,
// implemented inline because the real package imports this one (the
// full client/server integration lives in the cacheserver and campaign
// tests). It speaks the same protocol: raw validated record bytes
// under RecordPathPrefix.
type fakeCacheServer struct {
	mu   sync.Mutex
	recs map[string][]byte

	gets, puts, heads atomic.Uint64
	failWith          atomic.Int64 // non-zero: every response uses this status
	delay             atomic.Int64 // ns slept before answering a GET
}

func newFakeCacheServer() *fakeCacheServer {
	return &fakeCacheServer{recs: map[string][]byte{}}
}

func (f *fakeCacheServer) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(RecordPathPrefix+"{key}", func(w http.ResponseWriter, r *http.Request) {
		if status := f.failWith.Load(); status != 0 {
			http.Error(w, "injected failure", int(status))
			return
		}
		key := r.PathValue("key")
		switch r.Method {
		case http.MethodGet, http.MethodHead:
			if r.Method == http.MethodHead {
				f.heads.Add(1)
			} else {
				f.gets.Add(1)
			}
			if d := f.delay.Load(); d > 0 {
				time.Sleep(time.Duration(d))
			}
			f.mu.Lock()
			rec, ok := f.recs[key]
			f.mu.Unlock()
			if !ok {
				http.Error(w, "no record", http.StatusNotFound)
				return
			}
			if r.Method == http.MethodHead {
				return
			}
			w.Write(rec)
		case http.MethodPut:
			f.puts.Add(1)
			rec := make([]byte, 0, 1024)
			buf := make([]byte, 4096)
			for {
				n, err := r.Body.Read(buf)
				rec = append(rec, buf[:n]...)
				if err != nil {
					break
				}
			}
			if err := VerifyRecord(rec); err != nil {
				http.Error(w, err.Error(), http.StatusUnprocessableEntity)
				return
			}
			f.mu.Lock()
			f.recs[key] = rec
			f.mu.Unlock()
			w.WriteHeader(http.StatusNoContent)
		default:
			http.Error(w, "method", http.StatusMethodNotAllowed)
		}
	})
	return mux
}

// newTestRemote starts a fake server and a Remote over it with fast
// test-friendly timeouts; overrides tweak the config before dialing.
func newTestRemote(t *testing.T, overrides func(*RemoteConfig)) (*Remote, *fakeCacheServer) {
	t.Helper()
	fake := newFakeCacheServer()
	ts := httptest.NewServer(fake.handler())
	t.Cleanup(ts.Close)
	cfg := RemoteConfig{
		BaseURL: ts.URL,
		Timeout: 2 * time.Second,
		Backoff: time.Millisecond,
	}
	if overrides != nil {
		overrides(&cfg)
	}
	r, err := NewRemote(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r, fake
}

func TestRemoteRejectsBadBaseURL(t *testing.T) {
	for _, bad := range []string{"", "not a url", "host:8481", "/just/a/path"} {
		if _, err := NewRemote(RemoteConfig{BaseURL: bad}); err == nil {
			t.Errorf("NewRemote accepted base URL %q", bad)
		}
	}
}

// TestRemoteRoundTrip pushes every cacheable value through the wire
// protocol: write-behind Put, flush via Close, then a fresh client
// reads each back deep-equal. Misses are authoritative 404s.
func TestRemoteRoundTrip(t *testing.T) {
	fake := newFakeCacheServer()
	ts := httptest.NewServer(fake.handler())
	defer ts.Close()

	w, err := NewRemote(RemoteConfig{BaseURL: ts.URL, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	values := sampleValues()
	for i, v := range values {
		w.Put(digestOf(uint64(i)), v)
	}
	w.Close() // flushes the write-behind queue
	if ws := w.RemoteStats(); ws.PutsSent != uint64(len(values)) {
		t.Fatalf("PutsSent = %d, want %d (stats %+v)", ws.PutsSent, len(values), ws)
	}

	r, err := NewRemote(RemoteConfig{BaseURL: ts.URL, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i, v := range values {
		got, ok := r.Get(digestOf(uint64(i)))
		if !ok {
			t.Fatalf("value %d: remote miss after flushed Put", i)
		}
		if !reflect.DeepEqual(got, v) {
			t.Fatalf("value %d: remote round trip mismatch", i)
		}
	}
	if _, ok := r.Get(digestOf(999)); ok {
		t.Fatal("hit for a key never stored")
	}
	rs := r.RemoteStats()
	if rs.Hits != uint64(len(values)) || rs.Misses != 1 || rs.Errors != 0 {
		t.Fatalf("stats after round trip: %+v", rs)
	}
	if rs.Breaker != BreakerClosed {
		t.Fatalf("breaker %v after healthy traffic", rs.Breaker)
	}
}

// TestRemoteUnencodableValue: values outside the wire codec are
// skipped, not sent and not an error.
func TestRemoteUnencodableValue(t *testing.T) {
	r, fake := newTestRemote(t, nil)
	r.Put(digestOf(1), struct{ X int }{42})
	r.Close()
	if rs := r.RemoteStats(); rs.Skipped != 1 || rs.PutsQueued != 0 {
		t.Fatalf("stats after unencodable Put: %+v", rs)
	}
	if n := fake.puts.Load(); n != 0 {
		t.Fatalf("unencodable value reached the server (%d PUTs)", n)
	}
}

// TestRemoteSingleflight: concurrent Gets of one key collapse into a
// single server fetch; every caller still gets the value.
func TestRemoteSingleflight(t *testing.T) {
	r, fake := newTestRemote(t, nil)
	key := digestOf(7)
	r.Put(key, sampleRTAResult())
	waitPutsSent(t, r, 1)
	fake.delay.Store(int64(50 * time.Millisecond))

	const callers = 8
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(callers)
	var hits atomic.Uint64
	for i := 0; i < callers; i++ {
		go func() {
			defer done.Done()
			start.Wait()
			if _, ok := r.Get(key); ok {
				hits.Add(1)
			}
		}()
	}
	start.Done()
	done.Wait()
	if hits.Load() != callers {
		t.Fatalf("%d/%d callers got the value", hits.Load(), callers)
	}
	if got := fake.gets.Load(); got != 1 {
		t.Fatalf("server saw %d GETs, want 1 (singleflight)", got)
	}
	rs := r.RemoteStats()
	if rs.Collapsed != callers-1 {
		t.Fatalf("Collapsed = %d, want %d", rs.Collapsed, callers-1)
	}
}

// TestRemoteBreaker: consecutive failures open the breaker (degrading
// lookups to local-only misses without touching the network), and a
// half-open probe after the cooldown closes it again once the server
// recovers.
func TestRemoteBreaker(t *testing.T) {
	cooldown := 50 * time.Millisecond
	r, fake := newTestRemote(t, func(c *RemoteConfig) {
		c.Retries = -1 // no retries: one request per Get
		c.BreakerFailures = 2
		c.BreakerCooldown = cooldown
	})
	key := digestOf(3)
	r.Put(key, sampleRTAResult())
	waitPutsSent(t, r, 1)

	fake.failWith.Store(http.StatusInternalServerError)
	for i := 0; i < 2; i++ {
		if _, ok := r.Get(key); ok {
			t.Fatalf("hit %d from a failing server", i)
		}
	}
	rs := r.RemoteStats()
	if rs.Breaker != BreakerOpen || rs.BreakerOpens != 1 {
		t.Fatalf("breaker %v (opens %d) after %d failures", rs.Breaker, rs.BreakerOpens, rs.Errors)
	}
	// Open breaker: lookups degrade without network traffic.
	before := fake.gets.Load()
	if _, ok := r.Get(key); ok {
		t.Fatal("hit through an open breaker")
	}
	if fake.gets.Load() != before {
		t.Fatal("open breaker still sent a request")
	}
	if rs := r.RemoteStats(); rs.Degraded == 0 {
		t.Fatalf("no degraded lookups counted: %+v", rs)
	}
	// Puts drop instantly while open.
	dropped := r.RemoteStats().PutsDropped
	r.Put(digestOf(4), sampleRTAResult())
	if rs := r.RemoteStats(); rs.PutsDropped != dropped+1 {
		t.Fatalf("PutsDropped = %d, want %d", rs.PutsDropped, dropped+1)
	}

	// Server recovers; after the cooldown one probe closes the breaker.
	fake.failWith.Store(0)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := r.Get(key); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker never recovered after the server came back")
		}
		time.Sleep(cooldown / 4)
	}
	if rs := r.RemoteStats(); rs.Breaker != BreakerClosed {
		t.Fatalf("breaker %v after successful probe", rs.Breaker)
	}
}

// TestRemoteFailedProbeReopens: a half-open probe that fails re-opens
// the breaker immediately.
func TestRemoteFailedProbeReopens(t *testing.T) {
	cooldown := 20 * time.Millisecond
	r, fake := newTestRemote(t, func(c *RemoteConfig) {
		c.Retries = -1
		c.BreakerFailures = 1
		c.BreakerCooldown = cooldown
	})
	fake.failWith.Store(http.StatusBadGateway)
	r.Get(digestOf(1)) // opens
	time.Sleep(2 * cooldown)
	r.Get(digestOf(1)) // half-open probe, fails
	rs := r.RemoteStats()
	if rs.Breaker != BreakerOpen || rs.BreakerOpens < 2 {
		t.Fatalf("breaker %v (opens %d) after failed probe", rs.Breaker, rs.BreakerOpens)
	}
}

// TestRemoteTimeout: a black-holed server costs one client timeout per
// attempt, never a hang — the per-request deadline is the only way out.
func TestRemoteTimeout(t *testing.T) {
	r, _ := newTestRemote(t, func(c *RemoteConfig) {
		c.Timeout = 50 * time.Millisecond
		c.Retries = -1
		c.Client = &http.Client{Transport: &FaultyTransport{Sched: Always(FaultHang)}}
	})
	start := time.Now()
	if _, ok := r.Get(digestOf(1)); ok {
		t.Fatal("hit from a black-holed server")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timed-out lookup took %v", elapsed)
	}
	if rs := r.RemoteStats(); rs.Errors == 0 {
		t.Fatalf("timeout not counted as an error: %+v", rs)
	}
}

// TestRemoteQuarantine: corrupted and version-skewed records are
// quarantined client-side as misses. The transport is healthy, so the
// breaker must stay closed.
func TestRemoteQuarantine(t *testing.T) {
	for _, tc := range []struct{ fault Fault }{{FaultCorrupt}, {FaultStale}} {
		t.Run(tc.fault.String(), func(t *testing.T) {
			r, fake := newTestRemote(t, func(c *RemoteConfig) {
				c.Client = &http.Client{Transport: &FaultyTransport{Sched: Always(tc.fault)}}
			})
			key := digestOf(5)
			r.Put(key, sampleRTAReport(nil))
			waitPutsSent(t, r, 1)
			if fake.puts.Load() != 1 {
				t.Fatalf("PUT did not reach the server")
			}
			if _, ok := r.Get(key); ok {
				t.Fatalf("%v record served as a hit", tc.fault)
			}
			rs := r.RemoteStats()
			if rs.Corrupt != 1 {
				t.Fatalf("Corrupt = %d, want 1 (%+v)", rs.Corrupt, rs)
			}
			if rs.Breaker != BreakerClosed || rs.Errors != 0 {
				t.Fatalf("quarantine blamed the transport: %+v", rs)
			}
		})
	}
}

// TestRemoteRetries: transient failures are retried with backoff and
// the lookup still succeeds within the attempt budget.
func TestRemoteRetries(t *testing.T) {
	r, _ := newTestRemote(t, func(c *RemoteConfig) {
		c.Retries = 2
		c.BreakerFailures = 10
		c.Client = &http.Client{Transport: &FaultyTransport{Sched: EveryN(2, FaultError)}}
	})
	key := digestOf(6)
	r.Put(key, sampleRTAResult())
	waitPutsSent(t, r, 1)
	// EveryN(2, ...) fails every second round trip: each Get either
	// succeeds first try or after one retry.
	for i := 0; i < 4; i++ {
		if _, ok := r.Get(key); !ok {
			t.Fatalf("get %d failed within the retry budget", i)
		}
	}
	rs := r.RemoteStats()
	if rs.Hits != 4 || rs.Retries == 0 {
		t.Fatalf("stats after retried gets: %+v", rs)
	}
}

// TestRemoteWriteBehindNeverBlocks: with the server black-holed and
// the queue sized 1, a storm of Puts returns promptly — excess records
// are dropped, the hot path never waits on the network.
func TestRemoteWriteBehindNeverBlocks(t *testing.T) {
	r, _ := newTestRemote(t, func(c *RemoteConfig) {
		c.Timeout = 50 * time.Millisecond
		c.Retries = -1
		c.BreakerFailures = -1 // keep accepting so the full queue is what drops
		c.PutQueueDepth = 1
		c.PutWorkers = 1
		c.Client = &http.Client{Transport: &FaultyTransport{Sched: Always(FaultHang)}}
	})
	start := time.Now()
	const puts = 50
	for i := 0; i < puts; i++ {
		r.Put(digestOf(uint64(i)), sampleRTAResult())
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("%d write-behind Puts took %v", puts, elapsed)
	}
	rs := r.RemoteStats()
	if rs.PutsQueued+rs.PutsDropped != puts {
		t.Fatalf("queued %d + dropped %d != %d", rs.PutsQueued, rs.PutsDropped, puts)
	}
	if rs.PutsDropped == 0 {
		t.Fatal("a depth-1 queue dropped nothing under a 50-Put storm")
	}
}

// TestRemoteAfterClose: post-Close traffic degrades cleanly — Puts
// drop, Gets miss, and neither touches the network.
func TestRemoteAfterClose(t *testing.T) {
	r, fake := newTestRemote(t, nil)
	key := digestOf(2)
	r.Put(key, sampleRTAResult())
	r.Close()
	r.Close() // idempotent
	dropped := r.RemoteStats().PutsDropped
	r.Put(key, sampleRTAResult())
	if rs := r.RemoteStats(); rs.PutsDropped != dropped+1 {
		t.Fatalf("post-Close Put not dropped: %+v", rs)
	}
	gets := fake.gets.Load()
	if _, ok := r.Get(key); ok {
		t.Fatal("post-Close Get reported a hit")
	}
	if fake.gets.Load() != gets {
		t.Fatal("post-Close Get still sent a request")
	}
	if rs := r.RemoteStats(); rs.Gets != rs.Hits+rs.Misses {
		t.Fatalf("post-Close counter imbalance: %+v", rs)
	}
}

// TestRemotePutCannotWedgeHalfOpenBreaker: a Put racing ahead of any
// Get at cooldown expiry must not consume the half-open probe token —
// Put only enqueues, so if it took the probe nothing would ever resolve
// it and the breaker would wedge half-open (all Gets degraded, all Puts
// dropped) until process restart.
func TestRemotePutCannotWedgeHalfOpenBreaker(t *testing.T) {
	cooldown := 20 * time.Millisecond
	r, fake := newTestRemote(t, func(c *RemoteConfig) {
		c.Retries = -1
		c.BreakerFailures = 1
		c.BreakerCooldown = cooldown
		c.PutWorkers = 1
	})
	key := digestOf(8)
	r.Put(key, sampleRTAResult())
	waitPutsSent(t, r, 1)

	fake.failWith.Store(http.StatusInternalServerError)
	r.Get(key) // opens the breaker
	if rs := r.RemoteStats(); rs.Breaker != BreakerOpen {
		t.Fatalf("breaker %v after a failure at threshold 1", rs.Breaker)
	}
	fake.failWith.Store(0)
	time.Sleep(2 * cooldown)

	// The racing Put: enqueue-only, so the probe must stay available
	// for whichever round trip (this Put's worker or a Get) runs first.
	r.Put(key, sampleRTAResult())
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := r.Get(key); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker wedged half-open after a Put raced the probe")
		}
		time.Sleep(cooldown / 4)
	}
	if rs := r.RemoteStats(); rs.Breaker != BreakerClosed {
		t.Fatalf("breaker %v after recovery", rs.Breaker)
	}
}

// TestRemoteTieredComposition: Remote under Tiered behaves as the
// second level — a hit is promoted into L1, which then answers without
// touching the network.
func TestRemoteTieredComposition(t *testing.T) {
	r, _ := newTestRemote(t, nil)
	key := digestOf(9)
	want := sampleRTAReport(nil)
	r.Put(key, want)
	waitPutsSent(t, r, 1)

	l1 := NewLRU(1 << 20)
	tiered := NewTiered(l1, r)
	if got := RemoteOf(tiered); got != r {
		t.Fatal("RemoteOf failed to unwrap the tiered stack")
	}
	v, ok := tiered.Get(key)
	if !ok {
		t.Fatal("remote hit expected")
	}
	if !reflect.DeepEqual(v, want) {
		t.Fatal("remote hit decoded to a different value")
	}
	// Promoted: now an L1 hit without touching the network.
	gets := r.RemoteStats().Gets
	if _, ok := tiered.Get(key); !ok {
		t.Fatal("promoted key missed")
	}
	if st := l1.Stats(); st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("promotion into L1 did not happen: %+v", st)
	}
	if r.RemoteStats().Gets != gets {
		t.Fatal("L1 hit still queried the remote")
	}
	if st := tiered.Stats(); st.Hits != 2 {
		t.Fatalf("tiered stats: %+v", st)
	}
}

// TestRemoteOfNested: RemoteOf unwraps the full three-tier production
// stack LRU -> (Disk -> Remote).
func TestRemoteOfNested(t *testing.T) {
	r, _ := newTestRemote(t, nil)
	disk := newTestDisk(t, 0)
	stack := NewTiered(NewLRU(1<<20), NewTiered(disk, r))
	if RemoteOf(stack) != r {
		t.Fatal("RemoteOf failed on the nested stack")
	}
	if RemoteOf(NewLRU(1)) != nil {
		t.Fatal("RemoteOf invented a remote in a flat store")
	}
}

// TestRemoteConcurrentStorm hammers one Remote from many goroutines
// through a seeded fault schedule, under -race: counters must stay
// consistent (every Get ends as exactly one hit or miss) and every
// successful lookup must decode to the value stored under its key.
func TestRemoteConcurrentStorm(t *testing.T) {
	r, _ := newTestRemote(t, func(c *RemoteConfig) {
		c.Timeout = 250 * time.Millisecond
		c.Retries = 1
		c.BreakerFailures = 4
		c.BreakerCooldown = 10 * time.Millisecond
		c.Client = &http.Client{Transport: &FaultyTransport{Sched: Seeded(42, 0.15, FaultError)}}
	})
	const (
		workers = 8
		keys    = 16
		rounds  = 30
	)
	values := make([]any, keys)
	for i := range values {
		values[i] = sampleRTAReport(nil)
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := uint64((w*rounds + i) % keys)
				if i%3 == 0 {
					r.Put(digestOf(k), values[k])
				}
				if v, ok := r.Get(digestOf(k)); ok {
					if !reflect.DeepEqual(v, values[k]) {
						t.Errorf("worker %d round %d: wrong value for key %d", w, i, k)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	r.Close()
	// Every Get ends as exactly one hit or miss — flight leaders,
	// degraded lookups and collapsed duplicates alike.
	rs := r.RemoteStats()
	if rs.Gets != rs.Hits+rs.Misses {
		t.Fatalf("counter imbalance: gets %d != hits %d + misses %d (collapsed %d)",
			rs.Gets, rs.Hits, rs.Misses, rs.Collapsed)
	}
	if rs.PutsSent > rs.PutsQueued {
		t.Fatalf("write-behind sent more than was queued: %+v", rs)
	}
}

// TestRemoteBreakerFlapping drives a periodic fault schedule that
// repeatedly trips and recovers the breaker while Gets are in flight;
// the tier must keep serving (hits whenever the circuit is closed and
// the round trip survives) and the counters must balance.
func TestRemoteBreakerFlapping(t *testing.T) {
	r, _ := newTestRemote(t, func(c *RemoteConfig) {
		c.Retries = -1
		c.BreakerFailures = 2
		c.BreakerCooldown = time.Millisecond
		c.Client = &http.Client{Transport: &FaultyTransport{Sched: EveryN(3, FaultError)}}
	})
	key := digestOf(11)
	r.Put(key, sampleRTAResult())
	waitPutsSent(t, r, 1)

	var wg sync.WaitGroup
	var hits atomic.Uint64
	wg.Add(4)
	for w := 0; w < 4; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, ok := r.Get(key); ok {
					hits.Add(1)
				}
				time.Sleep(time.Duration(i%3) * 100 * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	rs := r.RemoteStats()
	if hits.Load() == 0 {
		t.Fatalf("no hits through a flapping breaker: %+v", rs)
	}
	if rs.Gets != rs.Hits+rs.Misses {
		t.Fatalf("counter imbalance under flapping: %+v", rs)
	}
}

// waitPutsSent blocks until the write-behind queue has delivered n
// records (bounded; write-behind means Put alone promises nothing).
func waitPutsSent(t *testing.T, r *Remote, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for r.RemoteStats().PutsSent < n {
		if time.Now().After(deadline) {
			t.Fatalf("write-behind never delivered %d records: %+v", n, r.RemoteStats())
		}
		time.Sleep(time.Millisecond)
	}
}
