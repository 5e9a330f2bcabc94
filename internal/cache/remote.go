package cache

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/contenthash"
)

// The remote-tier HTTP protocol: one resource per digest under
// RecordPathPrefix, carrying the exact versioned crc-framed record
// bytes that Disk persists (see disk.go). GET returns the record or
// 404; PUT stores it (204, idempotent); HEAD probes existence. The
// constants live with the client so the server (internal/cacheserver)
// and client can never skew on the path shape.
const (
	// RecordPathPrefix is the URL prefix of record resources:
	// {base}/cache/{32-hex-digest}.
	RecordPathPrefix = "/cache/"
	// HealthPathRemote is the cacheserver liveness endpoint.
	HealthPathRemote = "/healthz"
	// MaxRecordBytes bounds a single record on the wire; anything
	// larger is refused on both ends (a corrupt length prefix must not
	// become an allocation bomb).
	MaxRecordBytes = 16 << 20
)

// Remote-tier defaults; every knob is overridable via RemoteConfig.
const (
	DefaultRemoteTimeout   = 1 * time.Second
	DefaultRemoteRetries   = 1
	DefaultRemoteBackoff   = 25 * time.Millisecond
	DefaultBreakerFailures = 5
	DefaultBreakerCooldown = 10 * time.Second
	DefaultPutQueueDepth   = 1024
	DefaultPutWorkers      = 2
)

// RemoteConfig parameterises a Remote store. The zero value of every
// field selects the package default.
type RemoteConfig struct {
	// BaseURL is the cacheserver base, e.g. "http://10.0.0.7:8481".
	BaseURL string
	// Client issues the requests; nil selects a private http.Client
	// (per-request deadlines come from Timeout, so the client itself
	// carries none). Tests substitute a faulty transport here.
	Client *http.Client
	// Timeout bounds every individual request, Get and Put alike.
	Timeout time.Duration
	// Retries is how many times a failed request is retried (attempts
	// beyond the first); negative disables retries.
	Retries int
	// Backoff is the first retry's delay; it doubles per attempt.
	Backoff time.Duration
	// BreakerFailures is how many consecutive transport failures open
	// the circuit breaker; negative disables the breaker.
	BreakerFailures int
	// BreakerCooldown is how long the breaker stays open before a
	// half-open probe is allowed through.
	BreakerCooldown time.Duration
	// PutQueueDepth bounds the write-behind queue; a Put arriving at a
	// full queue is dropped (and counted), never blocked on.
	PutQueueDepth int
	// PutWorkers is how many background goroutines drain the queue.
	PutWorkers int
}

func (c RemoteConfig) withDefaults() RemoteConfig {
	if c.Timeout <= 0 {
		c.Timeout = DefaultRemoteTimeout
	}
	if c.Retries == 0 {
		c.Retries = DefaultRemoteRetries
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.Backoff <= 0 {
		c.Backoff = DefaultRemoteBackoff
	}
	if c.BreakerFailures == 0 {
		c.BreakerFailures = DefaultBreakerFailures
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = DefaultBreakerCooldown
	}
	if c.PutQueueDepth <= 0 {
		c.PutQueueDepth = DefaultPutQueueDepth
	}
	if c.PutWorkers <= 0 {
		c.PutWorkers = DefaultPutWorkers
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	return c
}

// Remote is the networked tier of the cache hierarchy: a Store backed
// by a cacheserver, composed under Tiered so a fleet of workers shares
// converged results by content hash. It is robust by construction —
// every request carries a deadline, failures retry with doubling
// backoff, repeated failure opens a circuit breaker that degrades the
// tier to all-miss (half-open probes recover it), concurrent misses of
// one key collapse into a single fetch, and Puts are write-behind:
// enqueued to a bounded queue drained by background workers, so the
// analysis hot path never blocks on the network. Whatever the remote
// end returns is crc-verified before it is trusted; anything invalid
// is quarantined as a miss. A degraded, faulty or unreachable remote
// therefore only ever costs recomputation, never a wrong byte.
//
// Remote is safe for concurrent use. Close flushes the write-behind
// queue and must be called to stop the background workers.
type Remote struct {
	cfg     RemoteConfig
	breaker breaker
	flights singleflight

	queue   chan putItem
	closeMu sync.RWMutex
	closed  bool
	wg      sync.WaitGroup

	gets        atomic.Uint64 // Get calls (after singleflight collapse)
	hits        atomic.Uint64
	misses      atomic.Uint64 // authoritative 404s
	errors      atomic.Uint64 // transport failures and unexpected statuses
	retries     atomic.Uint64
	corrupt     atomic.Uint64 // records failing crc/decode client-side
	degraded    atomic.Uint64 // lookups answered locally (breaker open or store closed)
	collapsed   atomic.Uint64 // duplicate concurrent Gets folded into one fetch (outcome still counted in hits/misses)
	skipped     atomic.Uint64 // Puts of values the codec does not carry
	putsQueued  atomic.Uint64
	putsSent    atomic.Uint64
	putsDropped atomic.Uint64 // queue full or breaker open
	putErrors   atomic.Uint64

	latency latencyHist
}

type putItem struct {
	key contenthash.Digest
	rec []byte
}

// NewRemote returns a Remote speaking to the cacheserver at
// cfg.BaseURL and starts its write-behind workers.
func NewRemote(cfg RemoteConfig) (*Remote, error) {
	base := strings.TrimRight(cfg.BaseURL, "/")
	u, err := url.Parse(base)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("cache: remote base URL %q: want scheme://host[:port]", cfg.BaseURL)
	}
	cfg.BaseURL = base
	cfg = cfg.withDefaults()
	r := &Remote{
		cfg:   cfg,
		queue: make(chan putItem, cfg.PutQueueDepth),
	}
	r.breaker.threshold = cfg.BreakerFailures
	r.breaker.cooldown = cfg.BreakerCooldown
	r.wg.Add(cfg.PutWorkers)
	for i := 0; i < cfg.PutWorkers; i++ {
		go r.putWorker()
	}
	return r, nil
}

// BaseURL returns the configured cacheserver base.
func (r *Remote) BaseURL() string { return r.cfg.BaseURL }

// Close drains the write-behind queue (each pending Put still bounded
// by its own timeout and retry budget) and stops the workers. Get and
// Put after Close degrade to miss/drop.
func (r *Remote) Close() {
	r.closeMu.Lock()
	if r.closed {
		r.closeMu.Unlock()
		return
	}
	r.closed = true
	close(r.queue)
	r.closeMu.Unlock()
	r.wg.Wait()
}

// Get fetches the record stored under key and decodes it. Breaker-open
// and post-Close lookups degrade to a miss without touching the
// network; concurrent fetches of one key collapse into a single
// request.
func (r *Remote) Get(key contenthash.Digest) (any, bool) {
	r.gets.Add(1)
	r.closeMu.RLock()
	closed := r.closed
	r.closeMu.RUnlock()
	if closed || !r.breaker.allow(time.Now()) {
		r.degraded.Add(1)
		r.misses.Add(1)
		return nil, false
	}
	v, ok, dup := r.flights.do(key, func() (any, bool) { return r.fetch(key) })
	if dup {
		// The leader's fetch counted its own outcome; count this
		// caller's too, so Gets == Hits + Misses holds per lookup.
		r.collapsed.Add(1)
		if ok {
			r.hits.Add(1)
		} else {
			r.misses.Add(1)
		}
	}
	return v, ok
}

// fetch is the single-flight body of Get: bounded retries with
// doubling backoff, crc verification of anything a 200 carries.
func (r *Remote) fetch(key contenthash.Digest) (any, bool) {
	start := time.Now()
	defer func() { r.latency.observe(time.Since(start)) }()
	for attempt := 0; ; attempt++ {
		raw, status, err := r.roundTrip(http.MethodGet, key, nil)
		if err == nil {
			switch status {
			case http.StatusOK:
				v, derr := DecodeRecord(raw)
				if derr != nil {
					// The bytes arrived but fail validation (corruption in
					// flight, version skew): quarantine-count and recompute
					// locally. The transport itself is healthy.
					r.corrupt.Add(1)
					r.misses.Add(1)
					r.breaker.success()
					return nil, false
				}
				r.hits.Add(1)
				r.breaker.success()
				return v, true
			case http.StatusNotFound:
				r.misses.Add(1)
				r.breaker.success()
				return nil, false
			}
			// Any other status falls through to the failure path.
		}
		r.errors.Add(1)
		r.breaker.failure(time.Now())
		if attempt >= r.cfg.Retries || !r.breaker.allow(time.Now()) {
			r.misses.Add(1)
			return nil, false
		}
		r.retries.Add(1)
		time.Sleep(r.cfg.Backoff << attempt)
	}
}

// Put encodes value into a record and enqueues it for write-behind
// delivery. It never blocks: a full queue, an open breaker or a closed
// store drops the record (recomputation elsewhere is the only cost).
func (r *Remote) Put(key contenthash.Digest, value any) {
	// ready, not allow: Put only enqueues, so it must never consume the
	// half-open probe token — the worker's sendPut arbitrates the probe
	// for the round trip it actually performs.
	if !r.breaker.ready(time.Now()) {
		r.putsDropped.Add(1)
		return
	}
	rec, ok := EncodeRecord(value)
	if !ok {
		r.skipped.Add(1)
		return
	}
	r.closeMu.RLock()
	defer r.closeMu.RUnlock()
	if r.closed {
		r.putsDropped.Add(1)
		return
	}
	select {
	case r.queue <- putItem{key: key, rec: rec}:
		r.putsQueued.Add(1)
	default:
		r.putsDropped.Add(1)
	}
}

// putWorker drains the write-behind queue.
func (r *Remote) putWorker() {
	defer r.wg.Done()
	for it := range r.queue {
		r.sendPut(it)
	}
}

// sendPut delivers one record with the same retry/breaker discipline
// as fetch. A 4xx is the server refusing the record (version skew, a
// digest it considers invalid) — dropped without blaming the transport.
func (r *Remote) sendPut(it putItem) {
	for attempt := 0; ; attempt++ {
		if !r.breaker.allow(time.Now()) {
			r.putsDropped.Add(1)
			return
		}
		_, status, err := r.roundTrip(http.MethodPut, it.key, it.rec)
		if err == nil {
			switch {
			case status == http.StatusNoContent || status == http.StatusOK:
				r.putsSent.Add(1)
				r.breaker.success()
				return
			case status >= 400 && status < 500:
				r.putErrors.Add(1)
				r.breaker.success()
				return
			}
			// 5xx falls through to the failure path.
		}
		r.putErrors.Add(1)
		r.breaker.failure(time.Now())
		if attempt >= r.cfg.Retries {
			return
		}
		r.retries.Add(1)
		time.Sleep(r.cfg.Backoff << attempt)
	}
}

// roundTrip issues one deadline-bounded request for key's record.
func (r *Remote) roundTrip(method string, key contenthash.Digest, body []byte) ([]byte, int, error) {
	ctx, cancel := context.WithTimeout(context.Background(), r.cfg.Timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, r.cfg.BaseURL+RecordPathPrefix+key.String(), rd)
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := r.cfg.Client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, MaxRecordBytes+1))
	if err != nil {
		return nil, 0, err
	}
	if len(raw) > MaxRecordBytes {
		return nil, 0, fmt.Errorf("cache: remote record exceeds %d bytes", MaxRecordBytes)
	}
	return raw, resp.StatusCode, nil
}

// Stats implements Store with the counters every tier shares; the
// remote-specific counters (breaker, write-behind, latency) are on
// RemoteStats.
func (r *Remote) Stats() Stats {
	return Stats{
		Hits:    r.hits.Load(),
		Misses:  r.misses.Load(),
		Corrupt: r.corrupt.Load(),
		Skipped: r.skipped.Load(),
	}
}

// RemoteStats snapshots the full remote-tier counter set.
func (r *Remote) RemoteStats() RemoteStats {
	state, opens := r.breaker.snapshot()
	s := RemoteStats{
		Gets:         r.gets.Load(),
		Hits:         r.hits.Load(),
		Misses:       r.misses.Load(),
		Errors:       r.errors.Load(),
		Retries:      r.retries.Load(),
		Corrupt:      r.corrupt.Load(),
		Degraded:     r.degraded.Load(),
		Collapsed:    r.collapsed.Load(),
		Skipped:      r.skipped.Load(),
		PutsQueued:   r.putsQueued.Load(),
		PutsSent:     r.putsSent.Load(),
		PutsDropped:  r.putsDropped.Load(),
		PutErrors:    r.putErrors.Load(),
		Breaker:      state,
		BreakerOpens: opens,
		QueueLen:     len(r.queue),
	}
	s.LatencyBuckets, s.LatencySumNS = r.latency.snapshot()
	return s
}

// RemoteStats is the counter snapshot of a Remote tier.
type RemoteStats struct {
	// Gets counts lookups reaching the tier; Hits/Misses split their
	// outcomes (Misses includes quarantined, degraded and failed
	// lookups; collapsed duplicates count the outcome they shared —
	// every lookup ends as exactly one of the two, so Gets always
	// equals Hits + Misses).
	Gets, Hits, Misses uint64
	// Errors counts transport failures and unexpected statuses;
	// Retries the re-attempts they triggered.
	Errors, Retries uint64
	// Corrupt counts records quarantined client-side (crc mismatch,
	// version skew, undecodable payload).
	Corrupt uint64
	// Degraded counts lookups answered all-miss without touching the
	// network (breaker open, or the store already closed); Collapsed
	// counts duplicate concurrent lookups folded into another flight's
	// fetch.
	Degraded, Collapsed uint64
	// Skipped counts Puts of values the wire codec does not carry.
	Skipped uint64
	// The write-behind pipeline: queued accepted, sent delivered,
	// dropped lost to a full queue / open breaker / closed store,
	// errors failed deliveries (including server refusals).
	PutsQueued, PutsSent, PutsDropped, PutErrors uint64
	// Breaker is the current circuit state; BreakerOpens counts
	// closed-to-open transitions.
	Breaker      BreakerState
	BreakerOpens uint64
	// QueueLen is the current write-behind backlog.
	QueueLen int
	// LatencyBuckets are non-cumulative fetch-latency observations per
	// RemoteLatencyBounds bound plus one overflow bucket; LatencySumNS
	// is their sum.
	LatencyBuckets []uint64
	LatencySumNS   uint64
}

// RemoteOf unwraps s — through any Tiered nesting — to the Remote tier
// inside it, or nil.
func RemoteOf(s Store) *Remote {
	switch t := s.(type) {
	case *Remote:
		return t
	case *Tiered:
		if r := RemoteOf(t.l2); r != nil {
			return r
		}
		return RemoteOf(t.l1)
	}
	return nil
}

// BreakerState enumerates the circuit-breaker states.
type BreakerState int32

const (
	// BreakerClosed: requests flow normally.
	BreakerClosed BreakerState = iota
	// BreakerHalfOpen: one probe is in flight; everything else is
	// answered locally.
	BreakerHalfOpen
	// BreakerOpen: the remote is presumed down; every lookup degrades
	// to a local miss until the cooldown expires.
	BreakerOpen
)

// String names the state for metrics and logs.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	}
	return fmt.Sprintf("BreakerState(%d)", int32(s))
}

// breaker is a consecutive-failure circuit breaker: threshold failures
// open it for cooldown, after which a single half-open probe either
// closes it again or re-opens it for another cooldown.
type breaker struct {
	threshold int
	cooldown  time.Duration

	mu       sync.Mutex
	state    BreakerState
	failures int
	openedAt time.Time
	probing  bool
	opens    uint64
}

// ready reports whether the breaker would admit a request right now,
// without consuming the half-open probe token: false only while fully
// open inside the cooldown window. It is for gates — like the
// write-behind enqueue — that decide admission but never touch the
// network themselves; callers that actually perform a round trip must
// use allow(), whose probe they then resolve via success()/failure().
func (b *breaker) ready(now time.Time) bool {
	if b.threshold < 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state != BreakerOpen || now.Sub(b.openedAt) >= b.cooldown
}

// allow reports whether a request may go to the network now. In the
// half-open state exactly one caller (the probe) is let through, and it
// MUST resolve the probe via success() or failure() — so only callers
// that go on to perform a round trip may call allow (see ready).
func (b *breaker) allow(now time.Time) bool {
	if b.threshold < 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if now.Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true
	default: // BreakerHalfOpen
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// success records a request the remote answered (hit, authoritative
// miss or refusal): the circuit closes and the failure streak resets.
func (b *breaker) success() {
	if b.threshold < 0 {
		return
	}
	b.mu.Lock()
	b.state = BreakerClosed
	b.failures = 0
	b.probing = false
	b.mu.Unlock()
}

// failure records a transport failure; a failed probe re-opens
// immediately, a closed-state streak opens at the threshold.
func (b *breaker) failure(now time.Time) {
	if b.threshold < 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.state = BreakerOpen
		b.openedAt = now
		b.opens++
		b.probing = false
		return
	}
	b.failures++
	if b.state == BreakerClosed && b.failures >= b.threshold {
		b.state = BreakerOpen
		b.openedAt = now
		b.opens++
	}
}

// snapshot returns the current state and the open-transition count.
func (b *breaker) snapshot() (BreakerState, uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state, b.opens
}

// singleflight collapses concurrent fetches of one key: the first
// caller runs fn, duplicates wait and share its result.
type singleflight struct {
	mu sync.Mutex
	m  map[contenthash.Digest]*flight
}

type flight struct {
	done chan struct{}
	v    any
	ok   bool
}

// do runs fn under key, reporting whether this call was a duplicate
// that waited on another flight.
func (s *singleflight) do(key contenthash.Digest, fn func() (any, bool)) (v any, ok, dup bool) {
	s.mu.Lock()
	if f, exists := s.m[key]; exists {
		s.mu.Unlock()
		<-f.done
		return f.v, f.ok, true
	}
	if s.m == nil {
		s.m = map[contenthash.Digest]*flight{}
	}
	f := &flight{done: make(chan struct{})}
	s.m[key] = f
	s.mu.Unlock()

	f.v, f.ok = fn()
	close(f.done)
	s.mu.Lock()
	delete(s.m, key)
	s.mu.Unlock()
	return f.v, f.ok, false
}

// remoteLatencyBounds are the fetch-latency histogram upper bounds.
// The unexported array form keeps the bucket count a compile-time
// constant, so latencyHist can never be sized out of step with it.
var remoteLatencyBounds = [...]time.Duration{
	1 * time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
	10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 250 * time.Millisecond, 500 * time.Millisecond,
	1 * time.Second, 2500 * time.Millisecond,
}

// RemoteLatencyBounds returns the fetch-latency histogram upper bounds
// (a fresh copy per call; the overflow bucket is implicit).
func RemoteLatencyBounds() []time.Duration {
	b := remoteLatencyBounds
	return b[:]
}

// latencyHist is a fixed-bound histogram over remoteLatencyBounds plus
// an overflow bucket, all atomics.
type latencyHist struct {
	buckets [len(remoteLatencyBounds) + 1]atomic.Uint64
	sumNS   atomic.Uint64
}

func (h *latencyHist) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := 0
	for ; i < len(remoteLatencyBounds); i++ {
		if d <= remoteLatencyBounds[i] {
			break
		}
	}
	h.buckets[i].Add(1)
	h.sumNS.Add(uint64(d))
}

func (h *latencyHist) snapshot() ([]uint64, uint64) {
	out := make([]uint64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out, h.sumNS.Load()
}
