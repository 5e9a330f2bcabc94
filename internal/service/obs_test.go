package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

// doTraced issues a request carrying a caller-supplied trace ID and
// returns status, body, and the echoed trace header.
func doTraced(t *testing.T, method, url, body, traceID string) (int, []byte, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if traceID != "" {
		req.Header.Set(obs.TraceIDHeader, traceID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data, resp.Header.Get(obs.TraceIDHeader)
}

func TestPromMetricsEndpoint(t *testing.T) {
	_, base := newTestServer(t)
	if status, body := do(t, "POST", base+"/v1/analyze", testSpec(t, 5)); status != http.StatusOK {
		t.Fatalf("analyze: %d %s", status, body)
	}
	status, body := do(t, "GET", base+"/metrics", "")
	if status != http.StatusOK {
		t.Fatalf("/metrics: %d %s", status, body)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE symtago_uptime_seconds gauge",
		"# TYPE symtago_requests_total counter",
		`symtago_requests_total{route="POST /v1/analyze"} 1`,
		"# TYPE symtago_request_duration_seconds histogram",
		`symtago_request_duration_seconds_bucket{route="POST /v1/analyze",le="+Inf"} 1`,
		`symtago_request_duration_seconds_count{route="POST /v1/analyze"} 1`,
		"# TYPE symtago_admission_queued gauge",
		`symtago_tenant_requests_total{tenant="anonymous"} 1`,
		`symtago_cache_hits_total{tier="l1"}`,
		"# TYPE symtago_sessions_active gauge",
		"symtago_shard_dispatch_total 0",
		"symtago_worker_shards_served_total 0",
		`symtago_campaign_jobs{state="running"} 0`,
		"symtago_traces_retained",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if ct := "text/plain; version=0.0.4"; !strings.Contains(headerOf(t, base+"/metrics", "Content-Type"), ct) {
		t.Errorf("/metrics content type does not advertise %q", ct)
	}
	assertFamiliesGrouped(t, body)
}

// TestPromMetricsDiskTier: a CacheDir server exposes the disk tier's
// byte budget and skipped-put counter.
func TestPromMetricsDiskTier(t *testing.T) {
	srv := mustServer(t, Config{Workers: 1, CacheDir: t.TempDir(), CacheMaxBytes: 1 << 20})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })
	if status, body := do(t, "POST", hs.URL+"/v1/analyze", testSpec(t, 5)); status != http.StatusOK {
		t.Fatalf("analyze: %d %s", status, body)
	}
	body := scrape(t, hs.URL)
	if got := sample(t, body, `symtago_cache_max_bytes{tier="l2"}`); got != 1<<20 {
		t.Fatalf("l2 max bytes = %v, want %d", got, 1<<20)
	}
	sample(t, body, `symtago_cache_skipped_total{tier="l2"}`) // fails the test when absent
	assertFamiliesGrouped(t, body)
}

// TestDiskTierResponseByteIdentical: a server over a disk L2 answers
// byte for byte what a server without one answers, cold and warm. The
// warm server opens the directory the cold one filled, as a restarted
// process would: its LRU is empty, so the disk serves its lookups.
func TestDiskTierResponseByteIdentical(t *testing.T) {
	_, plain := newTestServer(t)
	spec := testSpec(t, 11)
	status, want := do(t, "POST", plain+"/v1/analyze", spec)
	if status != http.StatusOK {
		t.Fatalf("plain analyze: %d %s", status, want)
	}
	dir := t.TempDir()
	for _, pass := range []string{"cold", "warm"} {
		srv := mustServer(t, Config{Workers: 1, CacheDir: dir})
		hs := httptest.NewServer(srv.Handler())
		status, got := do(t, "POST", hs.URL+"/v1/analyze", spec)
		l2Hits := sample(t, scrape(t, hs.URL), `symtago_cache_hits_total{tier="l2"}`)
		hs.Close()
		srv.Close()
		if status != http.StatusOK {
			t.Fatalf("%s analyze: %d %s", pass, status, got)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s disk-tier response differs from the plain server's", pass)
		}
		if pass == "warm" && l2Hits == 0 {
			t.Fatal("the warm server served no lookup from the disk L2")
		}
	}
}

// TestTracedSessionRoutesRecordCacheSpans pins one cache accountant on
// the interactive path: a traced session analysis or revision carries
// one cache.l1 span whose hits and misses are exactly the change the
// request made to the session's counters (GET /v1/sessions/{id}), and,
// over a disk level, one cache.l2 span splitting those misses.
func TestTracedSessionRoutesRecordCacheSpans(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"lru", Config{Workers: 1}}, {"disk", Config{Workers: 1, CacheDir: t.TempDir()}}} {
		t.Run(tc.name, func(t *testing.T) {
			srv := mustServer(t, tc.cfg)
			hs := httptest.NewServer(srv.Handler())
			t.Cleanup(func() { hs.Close(); srv.Close() })
			status, body := do(t, "POST", hs.URL+"/v1/sessions", testSpec(t, 5))
			if status != http.StatusCreated {
				t.Fatalf("create: %d %s", status, body)
			}
			var sc SessionCreated
			if err := json.Unmarshal(body, &sc); err != nil {
				t.Fatal(err)
			}
			info := func() SessionInfo {
				status, body := do(t, "GET", hs.URL+"/v1/sessions/"+sc.ID, "")
				var si SessionInfo
				if err := json.Unmarshal(body, &si); status != http.StatusOK || err != nil {
					t.Fatalf("info: %d %s", status, body)
				}
				return si
			}
			for i, req := range []struct{ method, path, body string }{
				{"GET", "/analysis", ""},
				{"POST", "/changes", "set-event-jitter bus0/M001_25ms 200us\n"},
				{"GET", "/analysis", ""},
			} {
				before := info()
				id := fmt.Sprintf("%032x", i+1)
				if status, body, _ := doTraced(t, req.method, hs.URL+"/v1/sessions/"+sc.ID+req.path, req.body, id); status != http.StatusOK {
					t.Fatalf("%s %s: %d %s", req.method, req.path, status, body)
				}
				after := info()
				hits := after.Hits + after.ReportHits - before.Hits - before.ReportHits
				misses := after.Misses - before.Misses
				spans := cacheSpans(t, hs.URL, id)
				if l1 := spans["cache.l1"]; len(l1) != 1 || l1[0]["hits"] != fmt.Sprint(hits) || l1[0]["misses"] != fmt.Sprint(misses) {
					t.Fatalf("%s %s: cache.l1 spans %v, want one with hits %d misses %d", req.method, req.path, l1, hits, misses)
				}
				l2 := spans["cache.l2"]
				if tc.cfg.CacheDir == "" {
					if len(l2) != 0 {
						t.Fatalf("%s %s: cache.l2 spans %v without a shared level", req.method, req.path, l2)
					}
					continue
				}
				if len(l2) != 1 || l2[0]["hits"] != "0" || l2[0]["misses"] != fmt.Sprint(misses) {
					t.Fatalf("%s %s: cache.l2 spans %v, want one splitting %d cold misses", req.method, req.path, l2, misses)
				}
			}
		})
	}
}

// cacheSpans fetches trace id and returns the attributes of its cache
// spans by name.
func cacheSpans(t *testing.T, base, id string) map[string][]map[string]string {
	t.Helper()
	status, body := do(t, "GET", base+"/v1/trace/"+id, "")
	if status != http.StatusOK {
		t.Fatalf("trace %s: %d %s", id, status, body)
	}
	var export struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &export); err != nil {
		t.Fatal(err)
	}
	out := map[string][]map[string]string{}
	for _, ev := range export.TraceEvents {
		if strings.HasPrefix(ev.Name, "cache.") {
			out[ev.Name] = append(out[ev.Name], ev.Args)
		}
	}
	return out
}

// assertFamiliesGrouped checks the exposition format's grouping rule:
// every sample belongs to the family of the most recent # TYPE line,
// a histogram's _bucket, _sum and _count series included.
func assertFamiliesGrouped(t *testing.T, body []byte) {
	t.Helper()
	family := ""
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			family, _, _ = strings.Cut(rest, " ")
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		switch strings.TrimPrefix(name, family) {
		case "", "_bucket", "_sum", "_count":
			if strings.HasPrefix(name, family) {
				continue
			}
		}
		t.Errorf("sample %q is not in family %q", line, family)
	}
}

// headerOf GETs url and returns the named response header.
func headerOf(t *testing.T, url, name string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.Header.Get(name)
}

func TestTraceEndpointRoundTrip(t *testing.T) {
	_, base := newTestServer(t)
	const id = "00112233445566778899aabbccddeeff"
	status, body, echoed := doTraced(t, "POST", base+"/v1/analyze", testSpec(t, 5), id)
	if status != http.StatusOK {
		t.Fatalf("traced analyze: %d %s", status, body)
	}
	if echoed != id {
		t.Fatalf("response echoed trace ID %q, want %q", echoed, id)
	}

	status, tbody := do(t, "GET", base+"/v1/trace/"+id, "")
	if status != http.StatusOK {
		t.Fatalf("trace fetch: %d %s", status, tbody)
	}
	var export struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		Metadata map[string]any `json:"metadata"`
	}
	if err := json.Unmarshal(tbody, &export); err != nil {
		t.Fatalf("trace body: %v\n%s", err, tbody)
	}
	if export.Metadata["trace_id"] != id {
		t.Fatalf("metadata = %v", export.Metadata)
	}
	names := map[string]bool{}
	for _, ev := range export.TraceEvents {
		names[ev.Name] = true
	}
	for _, want := range []string{"POST /v1/analyze", "admission.queue_wait", "cache.l1"} {
		if !names[want] {
			t.Errorf("trace missing span %q (have %v)", want, names)
		}
	}

	if status, _ := do(t, "GET", base+"/v1/trace/ffffffffffffffffffffffffffffffff", ""); status != http.StatusNotFound {
		t.Errorf("unknown trace: status %d, want 404", status)
	}
}

// TestTracedResponseByteIdentical pins the tentpole invariant: the
// response body of a traced request is byte-identical to the untraced
// one.
func TestTracedResponseByteIdentical(t *testing.T) {
	_, base := newTestServer(t)
	status, plain := do(t, "POST", base+"/v1/analyze", testSpec(t, 7))
	if status != http.StatusOK {
		t.Fatalf("untraced analyze: %d %s", status, plain)
	}
	status, traced, _ := doTraced(t, "POST", base+"/v1/analyze", testSpec(t, 7),
		"ffeeddccbbaa99887766554433221100")
	if status != http.StatusOK {
		t.Fatalf("traced analyze: %d %s", status, traced)
	}
	if !bytes.Equal(plain, traced) {
		t.Fatalf("traced response differs from untraced:\n%s\n----\n%s", plain, traced)
	}
}

func TestSlowestEndpoint(t *testing.T) {
	_, base := newTestServer(t)
	// A traced request is always offered to the flight recorder.
	doTraced(t, "POST", base+"/v1/analyze", testSpec(t, 5), "0123456789abcdef0123456789abcdef")
	status, body := do(t, "GET", base+"/v1/debug/slowest", "")
	if status != http.StatusOK {
		t.Fatalf("/v1/debug/slowest: %d %s", status, body)
	}
	var got struct {
		Offered uint64 `json:"offered"`
		Kept    int    `json:"kept"`
		Slowest []struct {
			Label string `json:"label"`
			DurNS int64  `json:"dur_ns"`
			Spans []struct {
				Name string `json:"name"`
			} `json:"spans"`
		} `json:"slowest"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("slowest body: %v\n%s", err, body)
	}
	if got.Offered == 0 || got.Kept == 0 || len(got.Slowest) == 0 {
		t.Fatalf("flight recorder empty after traced request: %s", body)
	}
	found := false
	for _, e := range got.Slowest {
		if e.Label == "POST /v1/analyze" && e.DurNS > 0 {
			found = true
			// The entry must carry the request's span tree (spans are
			// in recording order; children end before the route root).
			names := map[string]bool{}
			for _, s := range e.Spans {
				names[s.Name] = true
			}
			if !names["POST /v1/analyze"] || !names["admission.queue_wait"] {
				t.Fatalf("analyze flight entry lacks its span tree: %s", body)
			}
		}
	}
	if !found {
		t.Fatalf("no analyze entry in %s", body)
	}
}
