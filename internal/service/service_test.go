package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/scenario"
)

// mustServer builds a Server, failing the test on a config error.
func mustServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return srv
}

// newTestServer starts a service over httptest and returns the base
// URL.
func newTestServer(t *testing.T) (*Server, string) {
	t.Helper()
	srv := mustServer(t, Config{Workers: 1})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })
	return srv, hs.URL
}

// testSpec encodes a one-scenario corpus spec.
func testSpec(t *testing.T, seed int64) string {
	t.Helper()
	var b bytes.Buffer
	sp := scenario.Spec{Seed: seed, Count: 1}.WithDefaults()
	if err := sp.Encode(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// do issues a request and returns status and body.
func do(t *testing.T, method, url, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
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
	return resp.StatusCode, data
}

func TestHealthz(t *testing.T) {
	_, base := newTestServer(t)
	status, body := do(t, "GET", base+"/v1/healthz", "")
	if status != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("healthz: %d %s", status, body)
	}
}

func TestAnalyzeHappyPath(t *testing.T) {
	_, base := newTestServer(t)
	status, body := do(t, "POST", base+"/v1/analyze", testSpec(t, 5))
	if status != http.StatusOK {
		t.Fatalf("analyze: %d %s", status, body)
	}
	var sum AnalysisSummary
	if err := json.Unmarshal(body, &sum); err != nil {
		t.Fatal(err)
	}
	if len(sum.Buses) == 0 || sum.Iterations == 0 {
		t.Fatalf("empty summary: %+v", sum)
	}
	// A repeated upload is served from the shared store and must be
	// byte-identical.
	status2, body2 := do(t, "POST", base+"/v1/analyze", testSpec(t, 5))
	if status2 != http.StatusOK || !bytes.Equal(body, body2) {
		t.Fatalf("repeated analyze differs: %d", status2)
	}
}

func TestAnalyzeMalformedSpec(t *testing.T) {
	_, base := newTestServer(t)
	for name, body := range map[string]string{
		"unknown-key": "coont = 3\n",
		"bad-value":   "count = many\n",
		"bad-range":   "min_messages = 2\nmax_messages = 1\n",
	} {
		status, data := do(t, "POST", base+"/v1/analyze", body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d %s, want 400", name, status, data)
		}
		var e errorBody
		if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %q", name, data)
		}
	}
	if status, _ := do(t, "POST", base+"/v1/analyze?index=-1", testSpec(t, 5)); status != http.StatusBadRequest {
		t.Errorf("negative index: status %d, want 400", status)
	}
	if status, _ := do(t, "POST", base+"/v1/analyze?index=x", testSpec(t, 5)); status != http.StatusBadRequest {
		t.Errorf("non-numeric index: status %d, want 400", status)
	}
	// A huge index costs one scenario plan, not a corpus (O(1) via
	// scenario.GenerateOne) — the request must simply succeed.
	if status, _ := do(t, "POST", base+"/v1/analyze?index=2000000000", testSpec(t, 5)); status != http.StatusOK {
		t.Errorf("large index: status %d, want 200", status)
	}
}

// TestAnalyzeSpecLimits: an uploaded spec beyond the generation limits
// is refused with 400 naming its key, before any scenario is built.
func TestAnalyzeSpecLimits(t *testing.T) {
	_, base := newTestServer(t)
	for key, body := range map[string]string{
		"max_messages":       "count = 1\nmin_messages = 1000\nmax_messages = 1000\n",
		"flows_max":          "count = 1\nmin_buses = 2\nmax_buses = 2\nmin_messages = 200\nmax_messages = 200\nflows_min = 150\nflows_max = 150\n",
		"gateway_period_min": "count = 1\ngateway_period_min = \"1ns\"\ngateway_period_max = \"1ns\"\n",
		"max_buses":          "count = 1\nmin_buses = 2000\nmax_buses = 2000\n",
		"max_changes":        "count = 1\nmax_changes = 2000000\n",
	} {
		status, data := do(t, "POST", base+"/v1/analyze", body)
		var e errorBody
		if err := json.Unmarshal(data, &e); status != http.StatusBadRequest || err != nil || !strings.Contains(e.Error, key) {
			t.Errorf("%s: %d %s, want 400 naming %s", key, status, data, key)
		}
	}
}

func TestSessionLifecycle(t *testing.T) {
	_, base := newTestServer(t)
	status, body := do(t, "POST", base+"/v1/sessions", testSpec(t, 5))
	if status != http.StatusCreated {
		t.Fatalf("create: %d %s", status, body)
	}
	var sc SessionCreated
	if err := json.Unmarshal(body, &sc); err != nil {
		t.Fatal(err)
	}
	if sc.ID == "" || sc.TTLSeconds <= 0 {
		t.Fatalf("create response: %+v", sc)
	}

	// Base analysis must match the one-shot endpoint's summary.
	status, sessBody := do(t, "GET", base+"/v1/sessions/"+sc.ID+"/analysis", "")
	if status != http.StatusOK {
		t.Fatalf("session analysis: %d %s", status, sessBody)
	}
	status, oneShot := do(t, "POST", base+"/v1/analyze", testSpec(t, 5))
	if status != http.StatusOK || !bytes.Equal(sessBody, oneShot) {
		t.Fatalf("session analysis differs from one-shot analyze")
	}

	// Apply a revision; the analysis in the response reflects it.
	status, chBody := do(t, "POST", base+"/v1/sessions/"+sc.ID+"/changes",
		"set-event-jitter bus0/M001_25ms 200us\n")
	if status != http.StatusOK {
		t.Fatalf("changes: %d %s", status, chBody)
	}
	var ch ChangesApplied
	if err := json.Unmarshal(chBody, &ch); err != nil {
		t.Fatal(err)
	}
	if ch.Applied != 1 || len(ch.Changes) != 1 || ch.Analysis == nil {
		t.Fatalf("changes response: %+v", ch)
	}

	// Session stats report the incremental reuse.
	status, infoBody := do(t, "GET", base+"/v1/sessions/"+sc.ID, "")
	if status != http.StatusOK {
		t.Fatalf("info: %d %s", status, infoBody)
	}
	var info SessionInfo
	if err := json.Unmarshal(infoBody, &info); err != nil {
		t.Fatal(err)
	}
	if info.ID != sc.ID || info.Misses == 0 {
		t.Fatalf("info response: %+v", info)
	}

	// Close and observe 404s afterwards.
	if status, _ := do(t, "DELETE", base+"/v1/sessions/"+sc.ID, ""); status != http.StatusNoContent {
		t.Fatalf("delete: %d", status)
	}
	for _, probe := range [][2]string{
		{"GET", "/v1/sessions/" + sc.ID},
		{"GET", "/v1/sessions/" + sc.ID + "/analysis"},
		{"POST", "/v1/sessions/" + sc.ID + "/changes"},
		{"DELETE", "/v1/sessions/" + sc.ID},
	} {
		body := ""
		if probe[0] == "POST" {
			body = "set-event-jitter bus0/M001_25ms 1us\n"
		}
		if status, _ := do(t, probe[0], base+probe[1], body); status != http.StatusNotFound {
			t.Errorf("%s %s after delete: %d, want 404", probe[0], probe[1], status)
		}
	}
}

func TestSessionChangeErrors(t *testing.T) {
	_, base := newTestServer(t)
	_, body := do(t, "POST", base+"/v1/sessions", testSpec(t, 5))
	var sc SessionCreated
	if err := json.Unmarshal(body, &sc); err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		body string
		want int
	}{
		"bad-syntax":      {"twiddle bus0/M001_25ms 1ms\n", http.StatusBadRequest},
		"empty":           {"# nothing\n", http.StatusBadRequest},
		"unknown-element": {"set-event-jitter bus0/NOPE 1ms\n", http.StatusBadRequest},
		"unknown-bus":     {"set-frame-dlc busX/M001_25ms 4\n", http.StatusBadRequest},
	} {
		status, data := do(t, "POST", base+"/v1/sessions/"+sc.ID+"/changes", tc.body)
		if status != tc.want {
			t.Errorf("%s: status %d %s, want %d", name, status, data, tc.want)
		}
	}
	// Unknown session beats script parsing concerns.
	status, _ := do(t, "POST", base+"/v1/sessions/s999/changes", "set-event-jitter bus0/M001_25ms 1ms\n")
	if status != http.StatusNotFound {
		t.Errorf("unknown session: status %d, want 404", status)
	}
}

// TestConcurrentSessionMutation posts distinct revisions to one
// session from many goroutines; per-session locking must serialize
// them so the final state equals a serial application of the same
// edits (in any order — the edits commute).
func TestConcurrentSessionMutation(t *testing.T) {
	_, base := newTestServer(t)
	_, body := do(t, "POST", base+"/v1/sessions", testSpec(t, 5))
	var sc SessionCreated
	if err := json.Unmarshal(body, &sc); err != nil {
		t.Fatal(err)
	}

	// Distinct fixed-value jitter edits on distinct messages commute.
	edits := []string{
		"set-event-jitter bus0/M001_25ms 110us\n",
		"set-event-jitter bus0/M003_100ms 120us\n",
		"set-event-jitter bus0/M005_25ms 130us\n",
		"set-event-jitter bus0/M007_500ms 140us\n",
		"set-event-jitter bus0/M009_20ms 150us\n",
		"set-event-jitter bus0/M011_20ms 160us\n",
	}
	var wg sync.WaitGroup
	errs := make([]error, len(edits))
	for i, e := range edits {
		wg.Add(1)
		go func(i int, e string) {
			defer wg.Done()
			status, data := do(t, "POST", base+"/v1/sessions/"+sc.ID+"/changes", e)
			if status != http.StatusOK {
				errs[i] = fmt.Errorf("edit %d: %d %s", i, status, data)
			}
		}(i, e)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	status, got := do(t, "GET", base+"/v1/sessions/"+sc.ID+"/analysis", "")
	if status != http.StatusOK {
		t.Fatalf("final analysis: %d %s", status, got)
	}

	// Serial reference: a fresh session, all edits in one script.
	_, body = do(t, "POST", base+"/v1/sessions", testSpec(t, 5))
	var ref SessionCreated
	if err := json.Unmarshal(body, &ref); err != nil {
		t.Fatal(err)
	}
	status, chBody := do(t, "POST", base+"/v1/sessions/"+ref.ID+"/changes", strings.Join(edits, ""))
	if status != http.StatusOK {
		t.Fatalf("serial edits: %d %s", status, chBody)
	}
	var ch ChangesApplied
	if err := json.Unmarshal(chBody, &ch); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(ch.Analysis)
	if err != nil {
		t.Fatal(err)
	}
	if string(bytes.TrimSpace(got)) != string(want) {
		t.Fatalf("concurrent final state differs from serial application:\n%s\n%s", got, want)
	}
}

func TestSimulate(t *testing.T) {
	_, base := newTestServer(t)
	status, body := do(t, "POST", base+"/v1/simulate?seeds=1&duration=50ms", testSpec(t, 5))
	if status != http.StatusOK {
		t.Fatalf("simulate: %d %s", status, body)
	}
	var sim SimulateResponse
	if err := json.Unmarshal(body, &sim); err != nil {
		t.Fatal(err)
	}
	if sim.Runs != 1 || sim.Frames == 0 {
		t.Fatalf("simulate response: %+v", sim)
	}
	if sim.Violations != 0 {
		t.Fatalf("simulate found %d bound violations", sim.Violations)
	}
	for name, q := range map[string]string{
		"bad-seeds":    "?seeds=0",
		"bad-duration": "?duration=soon",
	} {
		if status, _ := do(t, "POST", base+"/v1/simulate"+q, testSpec(t, 5)); status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, status)
		}
	}
}

// Simulation work is bounded at the edge: more seeds or simulated time
// than campaign.CheckSimulation allows is refused with 400 before any
// run starts, so no request holds a worker slot after its answer.
func TestSimulationBoundedAtEdge(t *testing.T) {
	_, base := newTestServer(t)
	for _, route := range []string{"/v1/simulate", "/v1/campaigns"} {
		for _, q := range []string{
			"?seeds=4&duration=30000s",
			fmt.Sprintf("?seeds=%d", campaign.MaxSimSeeds+1),
			"?duration=" + (campaign.MaxSimDuration + time.Millisecond).String(),
		} {
			status, body := do(t, "POST", base+route+q, testSpec(t, 5))
			if status != http.StatusBadRequest || !strings.Contains(string(body), CodeBadRequest) {
				t.Errorf("%s%s: %d %s, want 400 %s", route, q, status, body, CodeBadRequest)
			}
		}
	}
	if n := sample(t, scrape(t, base), "symtago_admission_executing"); n != 0 {
		t.Errorf("symtago_admission_executing = %v after refused requests, want 0", n)
	}
}

func TestCampaignLifecycle(t *testing.T) {
	_, base := newTestServer(t)
	spec := "seed = 3\ncount = 6\n"
	status, body := do(t, "POST", base+"/v1/campaigns?seeds=1&duration=50ms", spec)
	if status != http.StatusAccepted {
		t.Fatalf("campaign create: %d %s", status, body)
	}
	var started CampaignStarted
	if err := json.Unmarshal(body, &started); err != nil {
		t.Fatal(err)
	}
	if started.Scenarios != 6 {
		t.Fatalf("campaign size %d, want 6", started.Scenarios)
	}

	var st CampaignStatus
	deadline := time.Now().Add(2 * time.Minute)
	for {
		status, body = do(t, "GET", base+"/v1/campaigns/"+started.ID, "")
		if status != http.StatusOK {
			t.Fatalf("status: %d %s", status, body)
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.State != "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign still running: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st.State != "done" || st.Summary == nil || st.Done != 6 {
		t.Fatalf("final status: %+v", st)
	}
	if st.Summary.Violations != 0 {
		t.Fatalf("campaign violations: %+v", st.Summary)
	}
	// The status has one way to wait, the SSE stream: a ?wait= query
	// gets the plain snapshot.
	if status, waited := do(t, "GET", base+"/v1/campaigns/"+started.ID+"?wait=bogus", ""); status != http.StatusOK ||
		!bytes.Equal(waited, body) {
		t.Fatalf("status with ?wait=: %d %s, want the snapshot %s", status, waited, body)
	}

	status, rep := do(t, "GET", base+"/v1/campaigns/"+started.ID+"/report", "")
	if status != http.StatusOK || !strings.Contains(string(rep), "Campaign — 6 scenarios") {
		t.Fatalf("report: %d %s", status, rep[:min(len(rep), 200)])
	}

	// Resume of a done job is a no-op; cancel echoes the real state.
	if status, _ = do(t, "POST", base+"/v1/campaigns/"+started.ID+"/resume", ""); status != http.StatusAccepted {
		t.Errorf("resume done: %d", status)
	}
	status, body = do(t, "POST", base+"/v1/campaigns/"+started.ID+"/cancel", "")
	if status != http.StatusAccepted || !strings.Contains(string(body), `"done"`) {
		t.Errorf("cancel of done job: %d %s, want state done", status, body)
	}

	// A finished job can be dropped; afterwards it is unknown.
	if status, _ = do(t, "DELETE", base+"/v1/campaigns/"+started.ID, ""); status != http.StatusNoContent {
		t.Errorf("delete done job: %d, want 204", status)
	}
	if status, _ = do(t, "GET", base+"/v1/campaigns/"+started.ID, ""); status != http.StatusNotFound {
		t.Errorf("status after delete: %d, want 404", status)
	}
	for _, p := range []string{"", "/report", "/cancel", "/resume"} {
		method := "GET"
		if strings.HasSuffix(p, "cancel") || strings.HasSuffix(p, "resume") {
			method = "POST"
		}
		if status, _ := do(t, method, base+"/v1/campaigns/c999"+p, ""); status != http.StatusNotFound {
			t.Errorf("unknown campaign %s%s: %d, want 404", method, p, status)
		}
	}
}

func TestCampaignCancelResume(t *testing.T) {
	_, base := newTestServer(t)
	// A larger corpus so cancellation usually lands mid-run; the test
	// is correct for any interleaving.
	spec := "seed = 4\ncount = 24\n"
	status, body := do(t, "POST", base+"/v1/campaigns?seeds=1&duration=50ms", spec)
	if status != http.StatusAccepted {
		t.Fatalf("create: %d %s", status, body)
	}
	var started CampaignStarted
	if err := json.Unmarshal(body, &started); err != nil {
		t.Fatal(err)
	}
	if status, _ := do(t, "POST", base+"/v1/campaigns/"+started.ID+"/cancel", ""); status != http.StatusAccepted {
		t.Fatalf("cancel: %d", status)
	}
	// Wait out the transition, then resume until done.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		var st CampaignStatus
		_, body = do(t, "GET", base+"/v1/campaigns/"+started.ID, "")
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == "done" {
			if st.Done != st.Total {
				t.Fatalf("done with %d/%d", st.Done, st.Total)
			}
			break
		}
		if st.State == "cancelled" {
			do(t, "POST", base+"/v1/campaigns/"+started.ID+"/resume", "")
		}
		if st.State == "failed" {
			t.Fatalf("campaign failed: %+v", st)
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign stuck: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// scrape GETs the Prometheus surface.
func scrape(t *testing.T, base string) []byte {
	t.Helper()
	status, body := do(t, "GET", base+"/metrics", "")
	if status != http.StatusOK {
		t.Fatalf("/metrics: %d %s", status, body)
	}
	return body
}

// sample reads one series from a scrape.
func sample(t *testing.T, body []byte, series string) float64 {
	t.Helper()
	v, err := promSample(body, series)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestMetricsEndpoint(t *testing.T) {
	_, base := newTestServer(t)
	do(t, "POST", base+"/v1/analyze", testSpec(t, 5))
	do(t, "POST", base+"/v1/analyze", "garbage\n")
	body := scrape(t, base)
	const route = `{route="POST /v1/analyze"}`
	n := sample(t, body, "symtago_requests_total"+route)
	errs := sample(t, body, "symtago_request_errors_total"+route)
	if n != 2 || errs != 1 {
		t.Fatalf("analyze route: %v requests, %v errors, want 2 and 1", n, errs)
	}
	if misses := sample(t, body, `symtago_cache_misses_total{tier="l1"}`); misses == 0 {
		t.Fatal("analysis store reports no misses")
	}
}

// getCode decodes the uniform error body.
func getCode(t *testing.T, data []byte) string {
	t.Helper()
	var e errorBody
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatalf("error body %q: %v", data, err)
	}
	if e.Error == "" || e.Code == "" {
		t.Fatalf("incomplete error body %q", data)
	}
	return e.Code
}

// TestErrorBodiesAreStructured checks that every non-2xx path — the
// handlers' own errors and the mux's 404/405 — answers with the
// uniform {"error", "code"} JSON body.
func TestErrorBodiesAreStructured(t *testing.T) {
	_, base := newTestServer(t)

	req, err := http.NewRequest("POST", base+"/v1/analyze", strings.NewReader("garbage\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest || getCode(t, data) != CodeBadRequest {
		t.Fatalf("bad spec: %d %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("bad spec content type %q", ct)
	}

	for name, tc := range map[string]struct {
		method, path, body string
		status             int
		code               string
	}{
		"unknown-session":  {"GET", "/v1/sessions/s999", "", http.StatusNotFound, CodeNotFound},
		"unknown-campaign": {"GET", "/v1/campaigns/c999", "", http.StatusNotFound, CodeNotFound},
		"mux-404":          {"GET", "/v1/nothing-here", "", http.StatusNotFound, CodeNotFound},
		"mux-405":          {"DELETE", "/v1/analyze", "", http.StatusMethodNotAllowed, CodeMethodNotAllowed},
	} {
		req, err := http.NewRequest(tc.method, base+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status || getCode(t, data) != tc.code {
			t.Errorf("%s: %d %s, want %d/%s", name, resp.StatusCode, data, tc.status, tc.code)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: content type %q, want application/json", name, ct)
		}
		if name == "mux-405" && resp.Header.Get("Allow") == "" {
			t.Error("mux-405: Allow header lost in the JSON rewrite")
		}
	}
}

// TestPayloadTooLarge uploads past the body cap and expects the
// structured 413.
func TestPayloadTooLarge(t *testing.T) {
	srv := mustServer(t, Config{Workers: 1, MaxBodyBytes: 64})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })
	status, data := do(t, "POST", hs.URL+"/v1/analyze", strings.Repeat("x", 1024))
	if status != http.StatusRequestEntityTooLarge || getCode(t, data) != CodePayloadTooLarge {
		t.Fatalf("oversized body: %d %s", status, data)
	}
}

// TestRateLimitSheds exhausts one tenant's bucket and checks the 429
// carries Retry-After while another tenant is still served.
func TestRateLimitSheds(t *testing.T) {
	srv := mustServer(t, Config{Workers: 1, TenantRate: 0.5, TenantBurst: 1})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })

	get := func(tenant string) (*http.Response, []byte) {
		req, err := http.NewRequest("POST", hs.URL+"/v1/analyze", strings.NewReader(testSpec(t, 5)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(TenantHeader, tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, data
	}
	if resp, data := get("a"); resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: %d %s", resp.StatusCode, data)
	}
	resp, data := get("a")
	if resp.StatusCode != http.StatusTooManyRequests || getCode(t, data) != CodeRateLimited {
		t.Fatalf("second request: %d %s, want 429/rate_limited", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if resp, data := get("b"); resp.StatusCode != http.StatusOK {
		t.Fatalf("other tenant: %d %s", resp.StatusCode, data)
	}
}

// TestQueueWaitTimeout fills the single worker slot so the next
// request times out queued, yielding the structured 503.
func TestQueueWaitTimeout(t *testing.T) {
	srv := mustServer(t, Config{Workers: 1, MaxClients: 1, RequestTimeout: 30 * time.Millisecond})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })

	srv.adm.slots <- struct{}{} // occupy the only slot
	defer func() { <-srv.adm.slots }()
	status, data := do(t, "POST", hs.URL+"/v1/analyze", testSpec(t, 5))
	if status != http.StatusServiceUnavailable || getCode(t, data) != CodeTimeout {
		t.Fatalf("queued past deadline: %d %s, want 503/timeout", status, data)
	}
}

// TestQueueFullSheds fills the slot and the queue; the overflow
// request is shed with 429/queue_full + Retry-After.
func TestQueueFullSheds(t *testing.T) {
	srv := mustServer(t, Config{Workers: 1, MaxClients: 1, QueueDepth: 1, RequestTimeout: time.Second})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })

	srv.adm.slots <- struct{}{} // occupy the only slot
	defer func() { <-srv.adm.slots }()
	queued := make(chan struct{})
	go func() {
		defer close(queued)
		do(t, "POST", hs.URL+"/v1/analyze", testSpec(t, 5)) // fills the queue, times out
	}()
	// Wait until the first request occupies the queue.
	deadline := time.Now().Add(time.Second)
	for {
		q, _, _ := srv.adm.snapshot()
		if q >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queued request never showed up")
		}
		time.Sleep(time.Millisecond)
	}
	req, err := http.NewRequest("POST", hs.URL+"/v1/analyze", strings.NewReader(testSpec(t, 5)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || getCode(t, data) != CodeQueueFull {
		t.Fatalf("overflow request: %d %s, want 429/queue_full", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("queue-full 429 without Retry-After")
	}
	<-queued
}

// TestSessionQuotaOverHTTP pins a tenant at its quota: an idle session
// is evicted to make room, but with every session acquired the create
// is refused with 429/session_quota.
func TestSessionQuotaOverHTTP(t *testing.T) {
	srv := mustServer(t, Config{Workers: 1, TenantQuota: 1})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })

	create := func() (int, []byte) {
		req, err := http.NewRequest("POST", hs.URL+"/v1/sessions", strings.NewReader(testSpec(t, 5)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(TenantHeader, "quota-tenant")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, data
	}
	status, body := create()
	if status != http.StatusCreated {
		t.Fatalf("first create: %d %s", status, body)
	}
	var first SessionCreated
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}

	// Second create evicts the idle first session.
	if status, body = create(); status != http.StatusCreated {
		t.Fatalf("create at quota with idle session: %d %s", status, body)
	}
	var second SessionCreated
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if status, _ := do(t, "GET", hs.URL+"/v1/sessions/"+first.ID, ""); status != http.StatusNotFound {
		t.Fatalf("evicted session still answers: %d", status)
	}

	// Acquire the surviving session; now the quota cannot evict.
	_, release, ok := srv.reg.Acquire(second.ID)
	if !ok {
		t.Fatalf("second session %s vanished", second.ID)
	}
	defer release()
	status, data := create()
	if status != http.StatusTooManyRequests || getCode(t, data) != CodeSessionQuota {
		t.Fatalf("create with quota busy: %d %s, want 429/session_quota", status, data)
	}
}

// TestCorpusCap rejects a campaign whose corpus exceeds the configured
// scenario cap before any generation work happens.
func TestCorpusCap(t *testing.T) {
	srv := mustServer(t, Config{Workers: 1, MaxCampaignScenarios: 4})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })
	status, data := do(t, "POST", hs.URL+"/v1/campaigns?seeds=1&duration=50ms", "seed = 3\ncount = 6\n")
	if status != http.StatusBadRequest || getCode(t, data) != CodeCorpusTooLarge {
		t.Fatalf("oversized corpus: %d %s, want 400/corpus_too_large", status, data)
	}
	// An uploaded spec with no count inherits the generator default of
	// 500 — the cap must see through that too.
	status, data = do(t, "POST", hs.URL+"/v1/campaigns?seeds=1&duration=50ms", "seed = 3\n")
	if status != http.StatusBadRequest || getCode(t, data) != CodeCorpusTooLarge {
		t.Fatalf("default-count corpus: %d %s, want 400/corpus_too_large", status, data)
	}
}

// TestDrainingGate flips the drain gate: application routes answer the
// structured 503 while operational routes stay up.
func TestDrainingGate(t *testing.T) {
	srv, base := newTestServer(t)
	srv.StartDraining()
	status, data := do(t, "POST", base+"/v1/analyze", testSpec(t, 5))
	if status != http.StatusServiceUnavailable || getCode(t, data) != CodeDraining {
		t.Fatalf("drained app route: %d %s, want 503/draining", status, data)
	}
	if status, _ := do(t, "GET", base+"/v1/healthz", ""); status != http.StatusOK {
		t.Fatalf("drained healthz: %d, want 200", status)
	}
	if draining := sample(t, scrape(t, base), "symtago_draining"); draining != 1 {
		t.Fatalf("symtago_draining = %v, want 1", draining)
	}
}

// TestMetricsAdmissionCounters checks shed attempts surface in the
// per-route counters.
func TestMetricsAdmissionCounters(t *testing.T) {
	srv := mustServer(t, Config{Workers: 1, TenantRate: 0.5, TenantBurst: 1})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })
	do(t, "POST", hs.URL+"/v1/analyze", testSpec(t, 5))
	do(t, "POST", hs.URL+"/v1/analyze", testSpec(t, 5)) // shed: bucket empty
	body := scrape(t, hs.URL)
	if shed := sample(t, body, `symtago_request_shed_total{route="POST /v1/analyze"}`); shed != 1 {
		t.Fatalf("analyze shed counter = %v, want 1", shed)
	}
	if sample(t, body, "symtago_admission_max_clients") == 0 || sample(t, body, "symtago_admission_queue_depth") == 0 {
		t.Fatal("admission capacity missing from metrics")
	}
}
