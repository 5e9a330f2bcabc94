package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/whatif"
)

const (
	// sessionClients closed-loop clients drive the server, one per core.
	sessionClients = 2
	// sessionsPerSecond sessions are planned per second of --seconds,
	// about what the 2-core reference host completes. Runs of ~2.6k
	// changes read p50 anywhere in 0.128-0.160 ms; ~15k held within 4%.
	sessionsPerSecond = 100
	// sessionChanges change requests revise each session. A session's
	// cost depends on its scenario, so a run's rates and p99 depend on
	// which scenarios it opens: at 48 changes a run opened about 400 and
	// its rate spread by 29% over five seeds; at 24 it opens twice as
	// many, and the spread fell to 16%.
	sessionChanges = 24
	// sessionSetups is how often the sessions set-up is repeated.
	sessionSetups = 5
)

// Requests per session: open, first analysis, the changes, close.
const sessionRequests = sessionChanges + 3

// sessionPlan is one session's traffic: a distinct scenario of the
// default corpus, its own tenant, and its revision script.
type sessionPlan struct {
	index  int
	tenant string
	script []string
}

// planSessions generates every session's scenario and revision script;
// gen is the time spent in the scenario generator.
func planSessions(seed int64, n int) (plans []sessionPlan, gen time.Duration, err error) {
	spec := scenario.Spec{Seed: seed}
	plans = make([]sessionPlan, n)
	for i := range plans {
		start := time.Now()
		sc, err := scenario.GenerateOne(spec, i)
		gen += time.Since(start)
		if err != nil {
			return nil, 0, err
		}
		sys, _, err := sc.Build()
		if err != nil {
			return nil, 0, err
		}
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
		plans[i] = sessionPlan{index: i, tenant: "t" + strconv.Itoa(i), script: reviseScript(sys, rng, sessionChanges)}
	}
	return plans, gen, nil
}

// editTarget is a bus message whose activation the script may edit.
type editTarget struct {
	bus, msg string
	period   time.Duration
}

// reviseScript draws a supplier-revision script over sys. Edits spread
// across resources and priorities: on every bus the highest-, middle-
// and lowest-priority messages that no link derives or feeds get jitter
// edits, every fourth line edits a DLC instead, and every eighth
// retunes a gateway, in turn. Each line sets absolute values, so a
// replay applies the same edits.
func reviseScript(sys *core.System, rng *rand.Rand, n int) []string {
	linked := map[core.ElementRef]bool{}
	for _, l := range sys.Links() {
		linked[l.From] = true
		linked[l.To] = true
	}
	var targets []editTarget
	for _, b := range sys.Buses() {
		var free []editTarget
		ids := map[string]uint32{}
		for _, m := range b.Messages {
			if !linked[core.ElementRef{Resource: b.Name, Element: m.Name}] && m.Event.Period > 0 {
				free = append(free, editTarget{b.Name, m.Name, m.Event.Period})
				ids[m.Name] = uint32(m.Frame.ID)
			}
		}
		sort.Slice(free, func(i, j int) bool { return ids[free[i].msg] < ids[free[j].msg] })
		if len(free) == 0 {
			continue
		}
		picks := []int{0, len(free) / 2, len(free) - 1}
		for k, p := range picks {
			if k == 0 || p != picks[k-1] {
				targets = append(targets, free[p])
			}
		}
	}
	gws := sys.Gateways()
	lines := make([]string, n)
	for j := range lines {
		switch {
		case len(gws) > 0 && j%8 == 7:
			lines[j] = retuneLine(gws[(j/8)%len(gws)], rng)
		case j%4 == 3:
			t := targets[(j/4)%len(targets)]
			lines[j] = fmt.Sprintf("set-frame-dlc %s/%s %d", t.bus, t.msg, 1+rng.Intn(8))
		default:
			t := targets[j%len(targets)]
			jitter := time.Duration(rng.Int63n(int64(t.period/2) + 1)).Truncate(time.Microsecond)
			lines[j] = fmt.Sprintf("set-event-jitter %s/%s %v", t.bus, t.msg, jitter)
		}
	}
	return lines
}

// retuneLine retunes a gateway's forwarding service within the corpus
// spec's period range, keeping its policy, batch and queue depth.
func retuneLine(g core.GatewayInfo, rng *rand.Rand) string {
	period := 500*time.Microsecond + time.Duration(rng.Intn(16))*100*time.Microsecond
	jitter := time.Duration(rng.Intn(int(period/4/time.Microsecond)+1)) * time.Microsecond
	policy := "fifo"
	if g.Config.Policy == gateway.PerMessageBuffer {
		policy = "buffer"
	}
	line := fmt.Sprintf("retune-gateway %s period=%v jitter=%v policy=%s depth=%d",
		g.Name, period, jitter, policy, g.Config.QueueDepth)
	if g.Config.Batch > 0 {
		line += " batch=" + strconv.Itoa(g.Config.Batch)
	}
	return line
}

// sessionBody is the spec upload that opens a session on the default
// corpus of the seed.
func sessionBody(seed int64) string { return fmt.Sprintf("seed = %d\n", seed) }

// response is what a run keeps of one response: its status and a
// digest of its body, the session id masked out of the open response.
type response struct {
	status int
	digest [sha256.Size]byte
}

func digestOf(status int, body []byte, sessionID string) response {
	if sessionID != "" {
		body = bytes.Replace(body, []byte(strconv.Quote(sessionID)), []byte(`"_"`), 1)
	}
	return response{status, sha256.Sum256(body)}
}

// sessionID extracts the id from an open response.
func sessionID(body []byte) (string, error) {
	var created service.SessionCreated
	if err := json.Unmarshal(body, &created); err != nil {
		return "", fmt.Errorf("session open response: %w", err)
	}
	if created.ID == "" {
		return "", fmt.Errorf("session open response without id: %s", body)
	}
	return created.ID, nil
}

// doer issues one request and returns status and body.
type doer func(method, path, body, tenant, traceID string) (int, []byte, error)

// serialReplay runs every plan in order against a fresh server's
// handler, in process: the reference every timed response must match.
// It also sums the fixpoint iterations the analyses report.
func serialReplay(seed int64, plans []sessionPlan) ([][]response, int, error) {
	srv, err := service.New(service.Config{})
	if err != nil {
		return nil, 0, err
	}
	defer srv.Close()
	do := handlerDoer(srv.Handler())
	ref := make([][]response, len(plans))
	iterations := 0
	for i := range plans {
		var err error
		ref[i], err = runSession(do, seed, &plans[i], "", func(kind int, _ time.Duration, body []byte) {
			if kind == kindAnalysis || kind == kindChange {
				iterations += analysisIterations(body)
			}
		})
		if err != nil {
			return nil, 0, err
		}
	}
	return ref, iterations, nil
}

// handlerDoer issues requests straight into a handler, in process.
func handlerDoer(h http.Handler) doer {
	return func(method, path, body, tenant, _ string) (int, []byte, error) {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		req.Header.Set(service.TenantHeader, tenant)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Body.Bytes(), nil
	}
}

// analysisIterations reads the fixpoint iteration count of an analysis
// or change response (0 when absent).
func analysisIterations(body []byte) int {
	var r struct {
		Iterations int `json:"iterations"`
		Analysis   *struct {
			Iterations int `json:"iterations"`
		} `json:"analysis"`
	}
	if json.Unmarshal(body, &r) != nil {
		return 0
	}
	if r.Analysis != nil {
		return r.Analysis.Iterations
	}
	return r.Iterations
}

// Request kinds of a session, in order.
const (
	kindOpen = iota
	kindAnalysis
	kindChange
	kindClose
)

// runSession drives one plan through the session protocol, calling
// observe after each request with its kind, latency and body. It stops
// early when the session cannot be opened.
func runSession(do doer, seed int64, p *sessionPlan, traceID string, observe func(kind int, d time.Duration, body []byte)) ([]response, error) {
	out := make([]response, 0, sessionRequests)
	call := func(kind int, method, path, body string) ([]byte, error) {
		start := time.Now()
		status, resp, err := do(method, path, body, p.tenant, traceID)
		d := time.Since(start)
		if err != nil {
			return nil, err
		}
		id := ""
		if kind == kindOpen && status == http.StatusCreated {
			if id, err = sessionID(resp); err != nil {
				return nil, err
			}
		}
		out = append(out, digestOf(status, resp, id))
		observe(kind, d, resp)
		return resp, nil
	}
	created, err := call(kindOpen, "POST", "/v1/sessions?index="+strconv.Itoa(p.index), sessionBody(seed))
	if err != nil {
		return out, err
	}
	if out[0].status != http.StatusCreated {
		return out, nil
	}
	id, _ := sessionID(created)
	base := "/v1/sessions/" + id
	if _, err := call(kindAnalysis, "GET", base+"/analysis", ""); err != nil {
		return out, err
	}
	for _, line := range p.script {
		if _, err := call(kindChange, "POST", base+"/changes", line); err != nil {
			return out, err
		}
	}
	_, err = call(kindClose, "DELETE", base, "")
	return out, err
}

// kindAt is the kind of request k of a session of n requests.
func kindAt(k, n int) int {
	switch {
	case k == 0:
		return kindOpen
	case k == 1:
		return kindAnalysis
	case k == n-1 && n == sessionRequests:
		return kindClose
	}
	return kindChange
}

// wantStatus is the success status of each request kind.
var wantStatus = [...]int{kindOpen: http.StatusCreated, kindAnalysis: http.StatusOK,
	kindChange: http.StatusOK, kindClose: http.StatusNoContent}

// liveServer is `symtago serve` at its default configuration on a
// loopback listener.
type liveServer struct {
	srv  *service.Server
	http *http.Server
	base string
	done sync.WaitGroup
	// changes times the changes route inside the server when metered.
	changes struct {
		count atomic.Int64
		nanos atomic.Int64
	}
}

func startServer(metered bool) (*liveServer, error) {
	srv, err := service.New(service.Config{})
	if err != nil {
		return nil, err
	}
	ls := &liveServer{srv: srv}
	h := srv.Handler()
	if metered {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost || !strings.HasSuffix(r.URL.Path, "/changes") {
				inner.ServeHTTP(w, r)
				return
			}
			start := time.Now()
			inner.ServeHTTP(w, r)
			ls.changes.nanos.Add(int64(time.Since(start)))
			ls.changes.count.Add(1)
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	ls.base = "http://" + ln.Addr().String()
	ls.http = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout: time.Minute, IdleTimeout: 2 * time.Minute}
	ls.done.Add(1)
	go func() {
		defer ls.done.Done()
		ls.http.Serve(ln)
	}()
	resp, err := http.Get(ls.base + "/v1/healthz")
	if err != nil {
		ls.stop()
		return nil, err
	}
	resp.Body.Close()
	return ls, nil
}

func (ls *liveServer) stop() {
	ls.http.Close()
	ls.done.Wait()
	ls.srv.Close()
}

// client returns one closed-loop client with its own connection, and
// the function that closes it.
func (ls *liveServer) client() (doer, func()) {
	c := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
	var buf bytes.Buffer
	return func(method, path, body, tenant, traceID string) (int, []byte, error) {
		req, err := http.NewRequest(method, ls.base+path, strings.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		req.Header.Set(service.TenantHeader, tenant)
		if body != "" {
			req.Header.Set("Content-Type", "text/plain")
		}
		if traceID != "" {
			req.Header.Set(obs.TraceIDHeader, traceID)
		}
		resp, err := c.Do(req)
		if err != nil {
			return 0, nil, err
		}
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, buf.Bytes(), err
	}, c.CloseIdleConnections
}

// sessionPass is what one timed pass over the plans observed.
type sessionPass struct {
	elapsed  time.Duration
	requests int
	// issued is how many plans, from the first, the pass ran.
	issued int
	failed int
	// reqRate is the median number of requests completed per full
	// second; sessRate the sessions completed per second, counted over
	// the whole timed length (a second holds too few to take a median).
	reqRate, sessRate float64
	changes           []float64 // ms, client-observed
	opens             []float64 // ms, open plus first analysis
	responses         [][]response
	queueWaits        []float64 // ms, from admission.queue_wait spans
	// fetching is the mean time a client spent reading traces.
	fetching time.Duration
}

// traceIDFor is the X-Trace-Id a traced pass sends with plan i.
func traceIDFor(i int) string { return fmt.Sprintf("%016x%016x", uint64(0xbe7c4), uint64(i+1)) }

// drive runs sessionClients closed-loop clients that pull plans off a
// shared queue, in order, until the pass has lasted the given time.
func (ls *liveServer) drive(seed int64, plans []sessionPlan, traced bool, length time.Duration) (*sessionPass, error) {
	p := &sessionPass{responses: make([][]response, len(plans))}
	var next atomic.Int64
	var mu sync.Mutex
	var reqDone, sessDone []time.Duration
	errs := make([]error, sessionClients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < sessionClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			do, closeIdle := ls.client()
			defer closeIdle()
			var changes, opens, waits []float64
			var reqs, sess []time.Duration
			var open, fetching time.Duration
			for time.Since(start) < length {
				i := int(next.Add(1)) - 1
				if i >= len(plans) {
					break
				}
				traceID := ""
				if traced {
					traceID = traceIDFor(i)
				}
				resp, err := runSession(do, seed, &plans[i], traceID, func(kind int, d time.Duration, _ []byte) {
					reqs = append(reqs, time.Since(start))
					switch kind {
					case kindOpen:
						open = d
					case kindAnalysis:
						opens = append(opens, ms(open+d))
					case kindChange:
						changes = append(changes, ms(d))
					}
				})
				p.responses[i] = resp
				if err != nil {
					errs[c] = err
					return
				}
				sess = append(sess, time.Since(start))
				if traced {
					t0 := time.Now()
					w, err := queueWaits(do, traceID)
					fetching += time.Since(t0)
					if err != nil {
						errs[c] = err
						return
					}
					waits = append(waits, w...)
				}
			}
			mu.Lock()
			p.changes = append(p.changes, changes...)
			p.opens = append(p.opens, opens...)
			p.queueWaits = append(p.queueWaits, waits...)
			reqDone = append(reqDone, reqs...)
			sessDone = append(sessDone, sess...)
			p.fetching += fetching / sessionClients
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	p.issued = min(int(next.Load()), len(plans))
	p.responses = p.responses[:p.issued]
	for _, r := range p.responses {
		p.requests += len(r)
		for k, x := range r {
			if x.status != wantStatus[kindAt(k, len(r))] {
				p.failed++
			}
		}
	}
	p.reqRate = windowRate(reqDone, length)
	for _, t := range sessDone {
		if t < length {
			p.sessRate++
		}
	}
	p.sessRate /= length.Seconds()
	return p, nil
}

// windowRate is the median number of completions per second over the
// full seconds of the first length of a pass. Medians over seconds keep
// a second slowed by a noisy neighbour from moving the rate.
func windowRate(done []time.Duration, length time.Duration) float64 {
	n := int(length / time.Second)
	if n == 0 {
		return ratio(float64(len(done)), length.Seconds())
	}
	counts := make([]float64, n)
	for _, t := range done {
		if w := int(t / time.Second); w < n {
			counts[w]++
		}
	}
	return median(counts)
}

// queueWaits fetches a session's trace and returns the admission queue
// waits it recorded, in ms.
func queueWaits(do doer, traceID string) ([]float64, error) {
	status, body, err := do("GET", "/v1/trace/"+traceID, "", "", "")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("trace %s: status %d", traceID, status)
	}
	var file struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Dur  int64  `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &file); err != nil {
		return nil, fmt.Errorf("trace %s: %w", traceID, err)
	}
	var waits []float64
	for _, e := range file.TraceEvents {
		if e.Name == "admission.queue_wait" {
			waits = append(waits, float64(e.Dur)/1e3)
		}
	}
	return waits, nil
}

// promValues reads the server's Prometheus exposition into a map keyed
// by metric name plus labels, as printed.
func promValues(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	vals := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			vals[line[:i]] = v
		}
	}
	return vals, sc.Err()
}

// whatifReplay replays the scripts in plan order directly on
// whatif.SystemSession over one store of the service's default
// capacity. It returns the mean time of one change (apply plus
// incremental re-analysis) in ms and the sessions' memo hit ratio.
func whatifReplay(seed int64, plans []sessionPlan) (changeMS, hitRatio float64, err error) {
	store := cache.NewLRU(0)
	spec := scenario.Spec{Seed: seed}
	var total time.Duration
	var hits, lookups uint64
	changes := 0
	for i := range plans {
		sc, err := scenario.GenerateOne(spec, plans[i].index)
		if err != nil {
			return 0, 0, err
		}
		sys, _, err := sc.Build()
		if err != nil {
			return 0, 0, err
		}
		sess := whatif.NewSystemSession(sys, whatif.Options{Store: store})
		if _, err := sess.Analyze(0); err != nil {
			return 0, 0, err
		}
		for _, line := range plans[i].script {
			cs, err := whatif.ParseSystemScript(strings.NewReader(line))
			if err != nil {
				return 0, 0, err
			}
			start := time.Now()
			if err := sess.Apply(cs...); err != nil {
				return 0, 0, err
			}
			if _, err := sess.Analyze(0); err != nil {
				return 0, 0, err
			}
			total += time.Since(start)
			changes++
		}
		st := sess.Stats()
		hits += st.Hits + st.ReportHits
		lookups += st.Hits + st.ReportHits + st.Misses
	}
	return ratio(ms(total), float64(changes)), ratio(float64(hits), float64(lookups)), nil
}

// runSessions is the interactive revision path: `symtago serve` at its
// default configuration on a loopback listener, driven by two
// closed-loop clients. Each session opens a distinct scenario under its
// own tenant (so the default rate limits shed nothing) and posts a
// revision script; the sessions together overflow the shared store's
// default capacity, so eviction is exercised. Set-up starts the server
// and generates the specs and scripts. After the timed phase the
// sessions it ran are replayed serially on a fresh server, the
// reference every response must match byte for byte.
func runSessions(opts options, out *outcome) error {
	length := time.Duration(opts.seconds) * time.Second
	// Plan twice what the reference host completes, so a faster host
	// still runs out of time before it runs out of sessions.
	n := opts.size(2 * sessionsPerSecond * opts.seconds)
	if err := warmUp(opts.seed, opts.size(warmupCount)); err != nil {
		return err
	}
	var setups []float64
	var ls *liveServer
	var plans []sessionPlan
	var gens []float64
	for i := 0; i < sessionSetups; i++ {
		if ls != nil {
			ls.stop()
		}
		start := time.Now()
		var err error
		if ls, err = startServer(false); err != nil {
			return err
		}
		var gen time.Duration
		if plans, gen, err = planSessions(opts.seed, n); err != nil {
			ls.stop()
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		gens = append(gens, ms(gen))
	}
	out.metrics["setup_s"] = median(setups)

	settle()
	mem := startMem()
	p, err := ls.drive(opts.seed, plans, false, length)
	if err != nil {
		ls.stop()
		return err
	}
	mem.record(out.metrics)
	// The server is still up: its store, registry and traces are live.
	out.metrics["live_heap_mb"] = liveHeapMB()
	ls.stop()
	out.metrics["requests_per_s"] = p.reqRate
	out.metrics["scenarios_per_s"] = p.sessRate
	out.metrics["change_p50_ms"] = median(p.changes)
	out.metrics["change_p99_ms"] = percentile(p.changes, 0.99)

	issued := p.issued
	var tp *sessionPass
	var tls *liveServer
	if opts.trace {
		if tls, err = startServer(true); err != nil {
			return err
		}
		settle()
		tp, err = tls.drive(opts.seed, plans, true, length)
		if err != nil {
			tls.stop()
			return err
		}
		issued = max(issued, tp.issued)
	}
	ref, iterations, err := serialReplay(opts.seed, plans[:issued])
	if err != nil {
		if tls != nil {
			tls.stop()
		}
		return err
	}
	mismatched := compareResponses(ref, p.responses)
	out.check(mismatchError(mismatched))
	out.attempted, out.failed = p.requests, p.failed+mismatched
	if !opts.trace {
		return nil
	}

	prom, err := promValues(tls.base)
	handled, handlerNanos := tls.changes.count.Load(), tls.changes.nanos.Load()
	tls.stop()
	if err != nil {
		return err
	}
	mismatched = compareResponses(ref, tp.responses)
	out.check(mismatchError(mismatched))
	out.attempted += tp.requests
	out.failed += tp.failed + mismatched

	m := out.metrics
	m["scenario.generate_ms"] = median(gens)
	m["core.iterations"] = ratio(float64(iterations), float64(len(ref)))
	m["service.handler_ms"] = ratio(float64(handlerNanos)/1e6, float64(handled))
	m["service.wire_ms"] = ratio(sum(tp.changes), float64(len(tp.changes))) - m["service.handler_ms"]
	m["service.queue_wait_ms"] = ratio(sum(tp.queueWaits), float64(len(tp.queueWaits)))
	m["service.open_ms"] = ratio(sum(tp.opens), float64(len(tp.opens)))
	l1 := `{tier="l1"}`
	m["whatif.store_hit_ratio"] = ratio(prom["symtago_cache_hits_total"+l1],
		prom["symtago_cache_hits_total"+l1]+prom["symtago_cache_misses_total"+l1])
	m["whatif.store_evictions"] = prom["symtago_cache_evictions_total"+l1]
	// Reading traces back is the harness's work, not the server's: the
	// traced rate counts only the time clients spent on requests.
	traced := tp.reqRate * ratio(float64(tp.elapsed), float64(tp.elapsed-tp.fetching))
	m["obs.overhead_pct"] = overheadPct(p.reqRate, traced)
	m["whatif.change_ms"], m["whatif.hit_ratio"], err = whatifReplay(opts.seed, plans[:tp.issued])
	return err
}

// compareResponses counts the responses of the sessions a pass ran
// (a prefix of the plans) that differ from the reference replay; a
// response missing from a session counts as different.
func compareResponses(ref, got [][]response) int {
	bad := 0
	for i := range got {
		for k := range ref[i] {
			if k >= len(got[i]) || got[i][k] != ref[i][k] {
				bad++
			}
		}
	}
	return bad
}

func mismatchError(n int) error {
	if n == 0 {
		return nil
	}
	return fmt.Errorf("%d responses differ from the serial replay", n)
}
