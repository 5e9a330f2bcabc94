package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/cacheserver"
)

// newRemoteServer starts a real cacheserver plus a service wired to it
// as the fleet tier, over a disk level in cacheDir (none when empty;
// with one, the full three-tier stack is live).
func newRemoteServer(t *testing.T, cacheDir string) (*Server, string) {
	t.Helper()
	disk, err := cache.NewDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(disk.Close)
	cs := httptest.NewServer(cacheserver.New(disk).Handler())
	t.Cleanup(cs.Close)
	srv := mustServer(t, Config{Workers: 1, CacheDir: cacheDir, RemoteCache: cs.URL})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })
	return srv, hs.URL
}

// TestPromMetricsRemoteTier: with a remote cache configured, /metrics
// exposes the fleet tier as tier="remote" — under a disk level (all
// three tiers) or alone (no l2) — plus the remote-client families
// (breaker state, write-behind pipeline, fetch latency histogram).
func TestPromMetricsRemoteTier(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cacheDir string
	}{{"three-tier", t.TempDir()}, {"remote-only", ""}} {
		t.Run(tc.name, func(t *testing.T) {
			_, base := newRemoteServer(t, tc.cacheDir)
			if status, body := do(t, "POST", base+"/v1/analyze", testSpec(t, 5)); status != http.StatusOK {
				t.Fatalf("analyze: %d %s", status, body)
			}
			status, body := do(t, "GET", base+"/metrics", "")
			if status != http.StatusOK {
				t.Fatalf("/metrics: %d %s", status, body)
			}
			text := string(body)
			for _, want := range []string{
				`symtago_cache_hits_total{tier="l1"}`,
				`symtago_cache_hits_total{tier="remote"}`,
				`symtago_cache_misses_total{tier="remote"}`,
				"# TYPE symtago_remote_cache_gets_total counter",
				"symtago_remote_cache_errors_total 0",
				"symtago_remote_cache_degraded_total 0",
				`symtago_remote_cache_puts_total{outcome="queued"}`,
				"symtago_remote_cache_breaker_state 0",
				"symtago_remote_cache_breaker_opens_total 0",
				"# TYPE symtago_remote_cache_fetch_seconds histogram",
				`symtago_remote_cache_fetch_seconds_bucket{le="+Inf"}`,
			} {
				if !strings.Contains(text, want) {
					t.Errorf("/metrics missing %q", want)
				}
			}
			if hasL2 := strings.Contains(text, `tier="l2"`); hasL2 != (tc.cacheDir != "") {
				t.Errorf("/metrics has tier=\"l2\" samples: %v, want %v", hasL2, tc.cacheDir != "")
			}
			assertFamiliesGrouped(t, body)
		})
	}
}

// TestRemoteTierResponseByteIdentical: the same request against a
// remote-tier server and a plain one produces byte-identical response
// bodies, cold and warm — the fleet tier must be invisible in every
// payload.
func TestRemoteTierResponseByteIdentical(t *testing.T) {
	_, plain := newTestServer(t)
	_, remote := newRemoteServer(t, t.TempDir())
	spec := testSpec(t, 11)
	_, want := do(t, "POST", plain+"/v1/analyze", spec)
	for _, pass := range []string{"cold", "warm"} {
		status, got := do(t, "POST", remote+"/v1/analyze", spec)
		if status != http.StatusOK {
			t.Fatalf("%s analyze: %d %s", pass, status, got)
		}
		if string(got) != string(want) {
			t.Fatalf("%s remote-tier response differs from plain server", pass)
		}
	}
}

// TestTraceRemoteSpan: a traced request through the three-tier stack
// records the aggregated cache.remote span once remote traffic
// occurred.
func TestTraceRemoteSpan(t *testing.T) {
	_, base := newRemoteServer(t, t.TempDir())
	const id = "ffeeddccbbaa99887766554433221100"
	status, body, _ := doTraced(t, "POST", base+"/v1/analyze", testSpec(t, 7), id)
	if status != http.StatusOK {
		t.Fatalf("traced analyze: %d %s", status, body)
	}
	status, tbody := do(t, "GET", base+"/v1/trace/"+id, "")
	if status != http.StatusOK {
		t.Fatalf("trace fetch: %d %s", status, tbody)
	}
	var export struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(tbody, &export); err != nil {
		t.Fatalf("trace body: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range export.TraceEvents {
		names[ev.Name] = true
	}
	for _, want := range []string{"cache.l1", "cache.remote"} {
		if !names[want] {
			t.Errorf("trace missing span %q (have %v)", want, names)
		}
	}
}

// TestNewReleasesDiskOnBadRemote: when the remote URL is refused, New
// closes the disk tier it has just opened. With GC off no os.File
// finalizer runs, so every leaked segment descriptor stays counted.
func TestNewReleasesDiskOnBadRemote(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("counts /proc/self/fd")
	}
	dir := t.TempDir()
	srv := mustServer(t, Config{Workers: 1, CacheDir: dir})
	hs := httptest.NewServer(srv.Handler())
	status, body := do(t, "POST", hs.URL+"/v1/analyze", testSpec(t, 5))
	hs.Close()
	srv.Close()
	if status != http.StatusOK {
		t.Fatalf("analyze: %d %s", status, body)
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "*.seg")); len(segs) == 0 {
		t.Fatal("analyze left no segment in the cache dir")
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fds := func() int {
		des, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(des)
	}
	start := fds()
	for i := 0; i < 200; i++ {
		if _, err := New(Config{CacheDir: dir, RemoteCache: "not a url"}); err == nil {
			t.Fatal("New accepted a remote cache that is not a URL")
		}
	}
	if end := fds(); end > start {
		t.Fatalf("open descriptors grew from %d to %d over 200 refused New calls", start, end)
	}
}
