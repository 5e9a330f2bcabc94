package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/scenario"
)

// LoadTestConfig parameterises the service selftest.
type LoadTestConfig struct {
	// Clients is the number of concurrent replaying clients (default 8).
	Clients int
	// Revisions is the maximum length of the change script a client
	// replays (default 50); each client replays a prefix whose length is
	// drawn from its scenario shape.
	Revisions int
	// Seed draws the scenario under test and the traffic shapes
	// (default 7).
	Seed int64
	// Tenants is the number of tenant identities the clients spread
	// over (default 8).
	Tenants int
	// Workers bounds the per-analysis fan-out of the server under test.
	Workers int
	// Server overrides the admission configuration of the server under
	// test. Zero fields keep the service defaults, except TenantQuota,
	// which defaults to unlimited so the storm's sessions are never
	// evicted mid-replay (the quota path has its own tests).
	Server Config
	// SkipDrain skips the drain/restore phase (it needs a scratch
	// directory and a second server).
	SkipDrain bool
}

func (c LoadTestConfig) withDefaults() LoadTestConfig {
	if c.Clients == 0 {
		c.Clients = 8
	}
	if c.Revisions == 0 {
		c.Revisions = 50
	}
	if c.Seed == 0 {
		c.Seed = 7
	}
	if c.Tenants <= 0 {
		c.Tenants = 8
	}
	return c
}

// RouteLatency is the observed client-side latency distribution of one
// route across the storm, plus its shed/timeout/error tallies.
type RouteLatency struct {
	Route string
	// Count is every attempt, retries included.
	Count int
	// Shed counts 429 responses (rate limit or full queue); Timeouts
	// counts deliberate 503s; Errors counts any other non-2xx.
	Shed, Timeouts, Errors int
	P50, P99, P999         time.Duration
}

// LoadTestResult reports the selftest outcome.
type LoadTestResult struct {
	// Clients, Revisions and Tenants echo the configuration.
	Clients, Revisions, Tenants int
	// Requests counts HTTP attempts issued across all phases, shed
	// retries included.
	Requests int
	// Shed and Timeouts total the deliberate rejections; every one was
	// retried and eventually served.
	Shed, Timeouts int
	// ShedMissingRetryAfter counts 429s that violated the contract by
	// omitting the Retry-After header.
	ShedMissingRetryAfter int
	// Unintended5xx counts 5xx responses the service did not choose
	// (anything but a structured 503 timeout/draining).
	Unintended5xx int
	// Mismatches counts non-shed responses that differed from the
	// serial golden replay; FirstMismatch describes the first one.
	Mismatches    int
	FirstMismatch string
	// Routes holds the per-route latency distributions.
	Routes []RouteLatency
	// HitRatePct is the aggregate what-if session hit rate after the
	// storm, from the symtago_session_cache_* counters on /metrics.
	HitRatePct float64
	// DrainOK reports the drain/restore phase: a campaign interrupted
	// by a drain resumed on a fresh server with a bit-identical report.
	// DrainDetail explains a failure (or notes the phase was skipped).
	DrainOK     bool
	DrainDetail string
	// Elapsed is the wall time of all phases.
	Elapsed time.Duration
}

// Passed reports whether the selftest met its contract: byte-identical
// non-shed responses, every shed carrying Retry-After, no unintended
// 5xx, a session hit rate above 50%, and a clean drain/restore.
func (r *LoadTestResult) Passed() bool {
	return r.Mismatches == 0 && r.ShedMissingRetryAfter == 0 &&
		r.Unintended5xx == 0 && r.HitRatePct > 50 && r.DrainOK
}

// Render formats the result for the CLI.
func (r *LoadTestResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "serve selftest: %d clients x <=%d revisions over %d tenants, %d requests in %v\n",
		r.Clients, r.Revisions, r.Tenants, r.Requests, r.Elapsed.Round(time.Millisecond))
	if r.Mismatches == 0 {
		fmt.Fprintf(&b, "  responses: byte-identical to serial execution\n")
	} else {
		fmt.Fprintf(&b, "  responses: %d MISMATCHES (first: %s)\n", r.Mismatches, r.FirstMismatch)
	}
	fmt.Fprintf(&b, "  shed: %d (missing Retry-After: %d)  timeouts: %d  unintended 5xx: %d\n",
		r.Shed, r.ShedMissingRetryAfter, r.Timeouts, r.Unintended5xx)
	for _, rt := range r.Routes {
		fmt.Fprintf(&b, "  %-34s n=%-6d p50=%-9v p99=%-9v p999=%-9v shed=%d timeout=%d\n",
			rt.Route, rt.Count, rt.P50.Round(time.Microsecond),
			rt.P99.Round(time.Microsecond), rt.P999.Round(time.Microsecond),
			rt.Shed, rt.Timeouts)
	}
	if r.DrainOK {
		fmt.Fprintf(&b, "  drain/restore: ok (%s)\n", r.DrainDetail)
	} else {
		fmt.Fprintf(&b, "  drain/restore: FAIL (%s)\n", r.DrainDetail)
	}
	fmt.Fprintf(&b, "  what-if session hit rate: %.1f%%", r.HitRatePct)
	if r.HitRatePct > 50 {
		b.WriteString(" (> 50% required: ok)")
	} else {
		b.WriteString(" (> 50% required: FAIL)")
	}
	return b.String()
}

// loadTestSpec is the scenario population the selftest draws scenario
// 0 from: always a multi-bus gateway chain, so incremental revisions
// have untouched resources to reuse.
func loadTestSpec(seed int64) scenario.Spec {
	return scenario.Spec{Seed: seed, Count: 1, MinBuses: 2, MaxBuses: 3}.WithDefaults()
}

// revisionScript derives a deterministic Revisions-line change script
// against scenario 0 of spec: jitter cycles on the two lowest-priority
// unforwarded messages of bus0 (the cheapest incremental edits — the
// untouched interference prefix stays memoized), with a payload
// revision every fifth line. Every edit sets an absolute value, so a
// replayed line is idempotent — the property that makes retrying a
// timed-out revision safe.
func revisionScript(spec scenario.Spec, revisions int) ([]string, error) {
	corpus, err := scenario.Generate(spec)
	if err != nil {
		return nil, err
	}
	sys, _, err := corpus.Scenarios[0].Build()
	if err != nil {
		return nil, err
	}
	forwarded := map[string]bool{}
	for _, l := range sys.Links() {
		if l.From.Resource == "bus0" {
			forwarded[l.From.Element] = true
		}
	}
	var targets []string
	for _, b := range sys.Buses() {
		if b.Name != "bus0" {
			continue
		}
		// Select by maximum frame ID (lowest priority) from the raw
		// messages — edits there dirty the smallest interference suffix.
		type cand struct {
			name string
			id   uint32
		}
		var cands []cand
		for _, m := range b.Messages {
			if !forwarded[m.Name] {
				cands = append(cands, cand{m.Name, uint32(m.Frame.ID)})
			}
		}
		for len(targets) < 2 && len(cands) > 0 {
			best := 0
			for i := range cands {
				if cands[i].id > cands[best].id {
					best = i
				}
			}
			targets = append(targets, cands[best].name)
			cands = append(cands[:best], cands[best+1:]...)
		}
	}
	if len(targets) < 2 {
		return nil, fmt.Errorf("service: selftest scenario has %d editable bus0 messages, need 2", len(targets))
	}
	lines := make([]string, revisions)
	for i := range lines {
		if i%5 == 4 {
			lines[i] = fmt.Sprintf("set-frame-dlc bus0/%s %d", targets[0], 1+i%8)
		} else {
			lines[i] = fmt.Sprintf("set-event-jitter bus0/%s %dus", targets[i%2], 50+13*i)
		}
	}
	return lines, nil
}

// trafficShape is one client's draw: which tenant it belongs to and
// how long a prefix of the revision script it replays.
type trafficShape struct {
	tenant    string
	revisions int
}

// maxShapeDraws caps the shape corpus; storms larger than this cycle
// through the draws.
const maxShapeDraws = 256

// trafficShapes derives per-client behaviour from scenario draws — the
// same generator that shapes campaign corpora shapes the storm, so the
// load is correlated and bursty rather than a uniform trickle.
func trafficShapes(cfg LoadTestConfig) ([]trafficShape, error) {
	draws := cfg.Clients
	if draws > maxShapeDraws {
		draws = maxShapeDraws
	}
	corpus, err := scenario.Generate(scenario.Spec{Seed: cfg.Seed + 1, Count: draws}.WithDefaults())
	if err != nil {
		return nil, err
	}
	shapes := make([]trafficShape, cfg.Clients)
	for i := range shapes {
		sc := &corpus.Scenarios[i%draws]
		weight := len(sc.Buses)*7 + len(sc.Changes)*3 + int(sc.Seed&0xff)
		shapes[i] = trafficShape{
			tenant:    fmt.Sprintf("tenant%02d", (i+len(sc.Changes))%cfg.Tenants),
			revisions: 1 + weight%cfg.Revisions,
		}
	}
	return shapes, nil
}

// ltRecorder is a minimal in-process ResponseWriter: the storm runs
// over direct handler calls, so thousands of concurrent clients cost
// goroutines, not TCP connections and file descriptors.
type ltRecorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (r *ltRecorder) Header() http.Header { return r.header }
func (r *ltRecorder) WriteHeader(s int) {
	if r.status == 0 {
		r.status = s
	}
}
func (r *ltRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(p)
}

// ltRunner drives one server under test and tallies every attempt.
type ltRunner struct {
	handler http.Handler

	requests   atomic.Uint64
	shed       atomic.Uint64
	timeouts   atomic.Uint64
	noRetryHdr atomic.Uint64
	bad5xx     atomic.Uint64

	mu     sync.Mutex
	rts    map[string]*routeTally
	first  string // first unintended failure, for the error message
	firstO sync.Once
}

type routeTally struct {
	lat                    []time.Duration
	shed, timeouts, errors int
}

func newLTRunner(h http.Handler) *ltRunner {
	return &ltRunner{handler: h, rts: map[string]*routeTally{}}
}

// ltAttemptCap bounds the shed-retry loop of one request; at one
// second per Retry-After this is minutes of backpressure, far beyond
// any healthy storm.
const ltAttemptCap = 600

// roundTrip performs one in-process request attempt.
func (lt *ltRunner) roundTrip(method, path, body, tenant string) (*ltRecorder, error) {
	req, err := http.NewRequest(method, "http://selftest"+path, strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "text/plain")
	}
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	rec := &ltRecorder{header: make(http.Header)}
	lt.handler.ServeHTTP(rec, req)
	if rec.status == 0 {
		rec.status = http.StatusOK
	}
	return rec, nil
}

// observe records one attempt against its route label.
func (lt *ltRunner) observe(route string, elapsed time.Duration, status int) {
	lt.mu.Lock()
	rt := lt.rts[route]
	if rt == nil {
		rt = &routeTally{}
		lt.rts[route] = rt
	}
	rt.lat = append(rt.lat, elapsed)
	switch {
	case status == http.StatusTooManyRequests:
		rt.shed++
	case status == http.StatusServiceUnavailable:
		rt.timeouts++
	case status >= 400:
		rt.errors++
	}
	lt.mu.Unlock()
}

// do issues one logical request, absorbing the admission layer's
// deliberate rejections: a 429 is retried after its Retry-After, a
// structured 503 (timeout) after a short backoff — safe because every
// selftest write is idempotent. Anything else unexpected fails the
// request; a 5xx additionally counts as unintended.
func (lt *ltRunner) do(route, method, path, body, tenant string, wantStatus int) ([]byte, error) {
	for attempt := 0; attempt < ltAttemptCap; attempt++ {
		start := time.Now()
		rec, err := lt.roundTrip(method, path, body, tenant)
		if err != nil {
			return nil, err
		}
		lt.requests.Add(1)
		lt.observe(route, time.Since(start), rec.status)
		switch {
		case rec.status == wantStatus:
			return rec.body.Bytes(), nil
		case rec.status == http.StatusTooManyRequests:
			lt.shed.Add(1)
			ra := rec.header.Get("Retry-After")
			if ra == "" {
				lt.noRetryHdr.Add(1)
				time.Sleep(100 * time.Millisecond)
				continue
			}
			secs, perr := strconv.Atoi(ra)
			if perr != nil || secs < 1 {
				lt.noRetryHdr.Add(1)
				secs = 1
			}
			// Honour the header, but probe at a finer grain than whole
			// seconds — the bucket refills continuously.
			time.Sleep(time.Duration(secs) * time.Second / 4)
		case rec.status == http.StatusServiceUnavailable && ltDeliberate503(rec.body.Bytes()):
			lt.timeouts.Add(1)
			time.Sleep(50 * time.Millisecond)
		default:
			if rec.status >= 500 {
				lt.bad5xx.Add(1)
			}
			err := fmt.Errorf("%s %s: status %d: %s", method, path, rec.status, rec.body.Bytes())
			lt.firstO.Do(func() {
				lt.mu.Lock()
				lt.first = err.Error()
				lt.mu.Unlock()
			})
			return nil, err
		}
	}
	return nil, fmt.Errorf("%s %s: still shed after %d attempts", method, path, ltAttemptCap)
}

// ltDeliberate503 reports whether a 503 body carries one of the codes
// the admission layer emits on purpose.
func ltDeliberate503(body []byte) bool {
	var e errorBody
	if err := json.Unmarshal(body, &e); err != nil {
		return false
	}
	return e.Code == CodeTimeout || e.Code == CodeDraining
}

// replay runs the full session protocol once under a tenant identity:
// create a session, fetch the base analysis, apply each script line.
// It returns the comparable response bodies.
func (lt *ltRunner) replay(specText string, script []string, tenant string) ([][]byte, error) {
	created, err := lt.do("POST /v1/sessions", "POST", "/v1/sessions", specText, tenant, http.StatusCreated)
	if err != nil {
		return nil, err
	}
	var sc SessionCreated
	if err := json.Unmarshal(created, &sc); err != nil {
		return nil, fmt.Errorf("session create response: %w", err)
	}
	bodies := make([][]byte, 0, len(script)+1)
	base, err := lt.do("GET /v1/sessions/{id}/analysis", "GET", "/v1/sessions/"+sc.ID+"/analysis", "", tenant, http.StatusOK)
	if err != nil {
		return nil, err
	}
	bodies = append(bodies, base)
	for _, line := range script {
		data, err := lt.do("POST /v1/sessions/{id}/changes", "POST", "/v1/sessions/"+sc.ID+"/changes", line, tenant, http.StatusOK)
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, data)
	}
	return bodies, nil
}

// percentile returns the q-quantile of sorted latencies.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// routes snapshots the per-route distributions, sorted by route.
func (lt *ltRunner) routes() []RouteLatency {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	out := make([]RouteLatency, 0, len(lt.rts))
	for route, rt := range lt.rts {
		sort.Slice(rt.lat, func(i, j int) bool { return rt.lat[i] < rt.lat[j] })
		out = append(out, RouteLatency{
			Route: route, Count: len(rt.lat),
			Shed: rt.shed, Timeouts: rt.timeouts, Errors: rt.errors,
			P50:  percentile(rt.lat, 0.50),
			P99:  percentile(rt.lat, 0.99),
			P999: percentile(rt.lat, 0.999),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Route < out[j].Route })
	return out
}

// serverConfig derives the config of the server under test.
func (c LoadTestConfig) serverConfig() Config {
	sc := c.Server
	if sc.Workers == 0 {
		sc.Workers = c.Workers
	}
	if sc.TenantQuota == 0 {
		// The storm keeps every session live for its whole replay; an
		// eviction mid-replay would be an unintended failure, so the
		// default selftest disables the quota (it has dedicated tests).
		sc.TenantQuota = -1
	}
	return sc
}

// LoadTest drives the service end to end: a serial golden replay of a
// seeded revision script, then a storm of Clients concurrent tenants
// replaying scenario-shaped prefixes of the same script against one
// shared store behind the admission layer. It proves the robustness
// contract — every non-shed response byte-identical to serial
// execution, every shed a 429 with Retry-After, no unintended 5xx —
// reports p50/p99/p999 per route, and finishes by draining a live
// campaign to a checkpoint and resuming it bit-identically on a fresh
// server.
func LoadTest(cfg LoadTestConfig) (*LoadTestResult, error) {
	cfg = cfg.withDefaults()
	start := time.Now()

	spec := loadTestSpec(cfg.Seed)
	var specBuf bytes.Buffer
	if err := spec.Encode(&specBuf); err != nil {
		return nil, err
	}
	specText := specBuf.String()
	script, err := revisionScript(spec, cfg.Revisions)
	if err != nil {
		return nil, err
	}
	shapes, err := trafficShapes(cfg)
	if err != nil {
		return nil, err
	}

	srv, err := New(cfg.serverConfig())
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	lt := newLTRunner(srv.Handler())

	// Phase 1: the serial golden replay under its own tenant.
	golden, err := lt.replay(specText, script, "golden")
	if err != nil {
		return nil, fmt.Errorf("serial replay: %w", err)
	}

	res := &LoadTestResult{
		Clients: cfg.Clients, Revisions: cfg.Revisions, Tenants: cfg.Tenants,
	}

	// Phase 2: the storm. Every client compares its prefix against the
	// golden bodies — shed and timed-out attempts were retried, so what
	// arrives here is only what the service chose to serve.
	type clientOut struct {
		bodies [][]byte
		err    error
	}
	outs := make([]clientOut, cfg.Clients)
	var wg sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sh := shapes[c]
			outs[c].bodies, outs[c].err = lt.replay(specText, script[:sh.revisions], sh.tenant)
		}(c)
	}
	wg.Wait()
	var firstErr error
	for c, out := range outs {
		if out.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("client %d: %w", c, out.err)
			}
			continue
		}
		for i, body := range out.bodies {
			if !bytes.Equal(body, golden[i]) {
				res.Mismatches++
				if res.FirstMismatch == "" {
					res.FirstMismatch = fmt.Sprintf("client %d response %d", c, i)
				}
			}
		}
	}

	// The reported hit rate aggregates every live session.
	data, err := lt.do("GET /metrics", "GET", "/metrics", "", "", http.StatusOK)
	if err != nil {
		return nil, err
	}
	hits, err := promSample(data, "symtago_session_cache_hits_total")
	if err != nil {
		return nil, err
	}
	misses, err := promSample(data, "symtago_session_cache_misses_total")
	if err != nil {
		return nil, err
	}
	if total := hits + misses; total > 0 {
		res.HitRatePct = 100 * hits / total
	}

	// Phase 3: drain/restore — interrupt a live campaign with the
	// SIGTERM protocol and prove the resumed report is bit-identical.
	if cfg.SkipDrain {
		res.DrainOK, res.DrainDetail = true, "skipped"
	} else {
		res.DrainOK, res.DrainDetail = drainPhase(srv, lt, cfg)
	}

	res.Requests = int(lt.requests.Load())
	res.Shed = int(lt.shed.Load())
	res.Timeouts = int(lt.timeouts.Load())
	res.ShedMissingRetryAfter = int(lt.noRetryHdr.Load())
	res.Unintended5xx = int(lt.bad5xx.Load())
	res.Routes = lt.routes()
	res.Elapsed = time.Since(start)
	if firstErr != nil {
		return res, firstErr
	}
	return res, nil
}

// promSample returns the value of one series, named with its labels
// exactly as exposed, from a Prometheus text body.
func promSample(body []byte, series string) (float64, error) {
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			return strconv.ParseFloat(v, 64)
		}
	}
	return 0, fmt.Errorf("metrics: no sample for %s", series)
}

// drainCampaignSpec is the corpus the drain phase interrupts: big
// enough that the drain lands mid-run on any machine.
const drainCampaignSpec = "seed = 11\ncount = 32\n"

// drainPhase starts a campaign on the (already stormed) server, drains
// the server mid-run to a checkpoint directory, restores the job on a
// fresh server and compares the resumed report byte-for-byte with an
// uninterrupted run. The stormed server is unusable afterwards.
func drainPhase(srv *Server, lt *ltRunner, cfg LoadTestConfig) (bool, string) {
	dir, err := os.MkdirTemp("", "symtago-drain-*")
	if err != nil {
		return false, fmt.Sprintf("scratch dir: %v", err)
	}
	defer os.RemoveAll(dir)

	body, err := lt.do("POST /v1/campaigns", "POST", "/v1/campaigns?seeds=1&duration=50ms",
		drainCampaignSpec, "golden", http.StatusAccepted)
	if err != nil {
		return false, fmt.Sprintf("campaign create: %v", err)
	}
	var started CampaignStarted
	if err := json.Unmarshal(body, &started); err != nil {
		return false, fmt.Sprintf("campaign create response: %v", err)
	}

	// Wait for partial progress so the drain genuinely interrupts work.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		body, err := lt.do("GET /v1/campaigns/{id}", "GET", "/v1/campaigns/"+started.ID, "", "golden", http.StatusOK)
		if err != nil {
			return false, fmt.Sprintf("campaign status: %v", err)
		}
		var st CampaignStatus
		if err := json.Unmarshal(body, &st); err != nil {
			return false, fmt.Sprintf("campaign status response: %v", err)
		}
		if st.Done >= 1 || st.State != "running" {
			break
		}
		if time.Now().After(deadline) {
			return false, "campaign made no progress before drain"
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The SIGTERM protocol: gate, verify the gate answers 503/draining,
	// then drain with a budget too small for the campaign to finish.
	srv.StartDraining()
	rec, err := lt.roundTrip("POST", "/v1/analyze", "count = 1\n", "golden")
	if err != nil {
		return false, fmt.Sprintf("drain probe: %v", err)
	}
	if rec.status != http.StatusServiceUnavailable || !ltDeliberate503(rec.body.Bytes()) {
		return false, fmt.Sprintf("drain probe answered %d %s, want structured 503", rec.status, rec.body.Bytes())
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	checkpointed, err := srv.Drain(drainCtx, dir)
	cancel()
	if err != nil {
		return false, fmt.Sprintf("drain: %v", err)
	}

	// Uninterrupted reference, same corpus and configuration.
	sp, err := scenario.ParseSpec(strings.NewReader(drainCampaignSpec))
	if err != nil {
		return false, fmt.Sprintf("reference spec: %v", err)
	}
	sc := cfg.serverConfig().withDefaults()
	ref, err := campaign.Run(sp, campaign.Config{
		Workers: sc.Workers, Seeds: 1, Duration: 50 * time.Millisecond,
	})
	if err != nil {
		return false, fmt.Sprintf("reference run: %v", err)
	}

	if checkpointed == 0 {
		// The campaign beat the drain budget; its report must still
		// match the reference.
		srv.jobsMu.Lock()
		cj := srv.jobs[started.ID]
		srv.jobsMu.Unlock()
		cj.mu.Lock()
		rep := cj.report
		cj.mu.Unlock()
		if rep == nil {
			return false, "campaign neither finished nor checkpointed"
		}
		if rep.Render() != ref.Render() {
			return false, "finished-before-drain report differs from reference"
		}
		return true, "campaign finished within drain budget; report verified"
	}

	// Restore on a fresh server and wait the resumed job out.
	srv2, err := New(cfg.serverConfig())
	if err != nil {
		return false, fmt.Sprintf("restart server: %v", err)
	}
	defer srv2.Close()
	lt2 := newLTRunner(srv2.Handler())
	restored, err := srv2.RestoreCampaigns(dir)
	if err != nil {
		return false, fmt.Sprintf("restore: %v", err)
	}
	if restored != checkpointed {
		return false, fmt.Sprintf("restored %d of %d checkpoints", restored, checkpointed)
	}
	for {
		body, err := lt2.do("GET /v1/campaigns/{id}", "GET", "/v1/campaigns/c1", "", "golden", http.StatusOK)
		if err != nil {
			return false, fmt.Sprintf("restored status: %v", err)
		}
		var st CampaignStatus
		if err := json.Unmarshal(body, &st); err != nil {
			return false, fmt.Sprintf("restored status response: %v", err)
		}
		if st.State == "done" {
			break
		}
		if st.State == "failed" || st.State == "cancelled" {
			return false, fmt.Sprintf("restored campaign ended %s", st.State)
		}
		if time.Now().After(deadline) {
			return false, "restored campaign did not finish"
		}
		time.Sleep(10 * time.Millisecond)
	}
	rep, err := lt2.do("GET /v1/campaigns/{id}/report", "GET", "/v1/campaigns/c1/report", "", "golden", http.StatusOK)
	if err != nil {
		return false, fmt.Sprintf("restored report: %v", err)
	}
	if string(rep) != ref.Render() {
		return false, "resumed report differs from uninterrupted run"
	}
	return true, fmt.Sprintf("campaign drained at a checkpoint and resumed bit-identically (%d checkpoint)", checkpointed)
}
