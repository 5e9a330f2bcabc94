package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// TenantHeader names the request header that attributes work to a
// tenant. Requests without it share the anonymous bucket and quota.
const TenantHeader = "X-Tenant"

// anonymousTenant is the shared bucket of untagged requests.
const anonymousTenant = "anonymous"

// tenantOf extracts the request's tenant.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get(TenantHeader); t != "" {
		return t
	}
	return anonymousTenant
}

// errQueueFull reports a full admission queue (load is shed).
var errQueueFull = errors.New("admission queue full")

// admission is the multi-tenant front door: per-tenant token buckets
// shed storms at the edge (429 + Retry-After), and a global bounded
// queue in front of a worker-slot semaphore converts overload into
// fast rejections instead of unbounded goroutine growth. Slots bound
// the analyses actually executing; the queue bounds the requests
// waiting for one; everything beyond that is shed.
type admission struct {
	queueDepth int
	rate       float64 // tokens per second per tenant; <= 0 disables
	burst      float64

	slots chan struct{}

	mu      sync.Mutex
	queued  int
	buckets map[string]*bucket
	// counters accumulate per-tenant admission outcomes for the
	// symtago_tenant_* families on /metrics. Unlike buckets they are
	// kept even when rate limiting is disabled.
	counters map[string]*tenantCounter
	now      func() time.Time // injectable for tests

	executing atomic.Int64
	draining  atomic.Bool
}

// tenantCounter is one tenant's running admission totals.
type tenantCounter struct {
	requests uint64 // application requests attributed to the tenant
	shed     uint64 // of those, rejected by rate limit or full queue
}

// bucket is one tenant's token bucket.
type bucket struct {
	tokens float64
	last   time.Time
}

func newAdmission(maxClients, queueDepth int, rate float64, burst int) *admission {
	return &admission{
		queueDepth: queueDepth,
		rate:       rate,
		burst:      float64(burst),
		slots:      make(chan struct{}, maxClients),
		buckets:    map[string]*bucket{},
		counters:   map[string]*tenantCounter{},
		now:        time.Now,
	}
}

// count attributes one application request to its tenant; shed marks
// the rejected ones (rate limit, full queue).
func (a *admission) count(tenant string, shed bool) {
	a.mu.Lock()
	c := a.counters[tenant]
	if c == nil {
		c = &tenantCounter{}
		a.counters[tenant] = c
	}
	c.requests++
	if shed {
		c.shed++
	}
	a.mu.Unlock()
}

// snapshotTenants copies the per-tenant totals.
func (a *admission) snapshotTenants() map[string]tenantCounter {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]tenantCounter, len(a.counters))
	for t, c := range a.counters {
		out[t] = *c
	}
	return out
}

// takeToken draws one token from the tenant's bucket. When the bucket
// is empty it reports the duration until the next token — the
// Retry-After the client should honour.
func (a *admission) takeToken(tenant string) (retry time.Duration, ok bool) {
	if a.rate <= 0 {
		return 0, true
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	b := a.buckets[tenant]
	now := a.now()
	if b == nil {
		b = &bucket{tokens: a.burst, last: now}
		a.buckets[tenant] = b
	} else {
		b.tokens += a.rate * now.Sub(b.last).Seconds()
		if b.tokens > a.burst {
			b.tokens = a.burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return 0, true
	}
	return time.Duration((1 - b.tokens) / a.rate * float64(time.Second)), false
}

// wait claims a worker slot, queueing at most queueDepth requests.
// It fails fast with errQueueFull when the queue is at capacity and
// with the context error when the request's deadline expires while
// queued.
func (a *admission) wait(ctx context.Context) error {
	a.mu.Lock()
	if a.queued >= a.queueDepth {
		a.mu.Unlock()
		return errQueueFull
	}
	a.queued++
	a.mu.Unlock()

	defer func() {
		a.mu.Lock()
		a.queued--
		a.mu.Unlock()
	}()
	select {
	case a.slots <- struct{}{}:
		a.executing.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release frees the worker slot claimed by a successful wait.
func (a *admission) release() {
	a.executing.Add(-1)
	<-a.slots
}

// snapshot reports the queue state for /metrics.
func (a *admission) snapshot() (queued int, executing int, tenants int) {
	a.mu.Lock()
	queued = a.queued
	tenants = len(a.buckets)
	a.mu.Unlock()
	return queued, int(a.executing.Load()), tenants
}

// retryAfter renders d as a Retry-After header value (whole seconds,
// minimum 1 — the header has no sub-second form).
func retryAfter(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprintf("%d", secs)
}

// deferredWriter buffers a handler's response so the admission layer
// can race it against the request deadline: on completion the buffer
// is flushed to the real writer; on expiry the buffer is abandoned and
// the client gets the structured 503 instead. The handler goroutine is
// the only writer until done is signalled, so no lock is needed.
type deferredWriter struct {
	header http.Header
	status int
	body   []byte
}

func newDeferredWriter() *deferredWriter {
	return &deferredWriter{header: make(http.Header)}
}

func (d *deferredWriter) Header() http.Header { return d.header }

func (d *deferredWriter) WriteHeader(status int) {
	if d.status == 0 {
		d.status = status
	}
}

func (d *deferredWriter) Write(p []byte) (int, error) {
	if d.status == 0 {
		d.status = http.StatusOK
	}
	d.body = append(d.body, p...)
	return len(p), nil
}

// flushTo replays the buffered response onto w.
func (d *deferredWriter) flushTo(w http.ResponseWriter) {
	for k, vs := range d.header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	status := d.status
	if status == 0 {
		status = http.StatusOK
	}
	w.WriteHeader(status)
	w.Write(d.body)
}

// admitted wraps an application handler with the full admission chain:
// drain gate, per-tenant token bucket, request deadline, bounded queue
// and worker slot. Operational routes (healthz, metrics) are not
// admitted — they must answer even when the service is saturated.
func (s *Server) admitted(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.adm.draining.Load() {
			writeErr(w, http.StatusServiceUnavailable, CodeDraining,
				"server is draining; retry against another instance")
			return
		}
		tenant := tenantOf(r)
		if retry, ok := s.adm.takeToken(tenant); !ok {
			s.adm.count(tenant, true)
			w.Header().Set("Retry-After", retryAfter(retry))
			writeErr(w, http.StatusTooManyRequests, CodeRateLimited,
				"tenant %q is over its request rate; retry after %s s", tenant, retryAfter(retry))
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		_, qsp := obs.StartSpan(ctx, "admission.queue_wait")
		err := s.adm.wait(ctx)
		qsp.SetBool("admitted", err == nil)
		qsp.End()
		if err != nil {
			if errors.Is(err, errQueueFull) {
				s.adm.count(tenant, true)
				w.Header().Set("Retry-After", "1")
				writeErr(w, http.StatusTooManyRequests, CodeQueueFull,
					"admission queue is full (%d waiting); load shed", s.cfg.QueueDepth)
				return
			}
			s.adm.count(tenant, false)
			writeErr(w, http.StatusServiceUnavailable, CodeTimeout,
				"request spent its %v budget queued for a worker slot", s.cfg.RequestTimeout)
			return
		}
		s.adm.count(tenant, false)

		// Race the handler against the remaining deadline. The handler
		// goroutine owns the deferred buffer and the worker slot: on
		// expiry the response below is the 503 and the handler's late
		// result is discarded when it finishes (work is bounded, the
		// slot is released then — MaxClients stays honest).
		dw := newDeferredWriter()
		done := make(chan struct{})
		req := r.WithContext(ctx)
		go func() {
			defer close(done)
			defer s.adm.release()
			h(dw, req)
		}()
		select {
		case <-done:
			dw.flushTo(w)
		case <-ctx.Done():
			writeErr(w, http.StatusServiceUnavailable, CodeTimeout,
				"request exceeded its %v budget", s.cfg.RequestTimeout)
		}
	}
}
