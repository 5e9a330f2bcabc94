package service

import (
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// latencyBucketBounds are the upper bounds of the request latency
// histogram; the final bucket is unbounded.
var latencyBucketBounds = [...]time.Duration{
	time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond,
	time.Second, 10 * time.Second,
}

// numLatencyBuckets sizes the per-route bucket array: one bucket per
// bound plus the unbounded tail.
const numLatencyBuckets = len(latencyBucketBounds) + 1

// routeMetrics accumulates one route's counters. All fields are
// atomics: the observe path is lock-free once the route is registered.
type routeMetrics struct {
	count    atomic.Uint64
	errors   atomic.Uint64 // responses with status >= 400
	shed     atomic.Uint64 // 429: rate limit or full queue
	timeouts atomic.Uint64 // 503: deadline expiry or drain
	durNanos atomic.Uint64 // summed elapsed time (Prometheus _sum)
	buckets  [numLatencyBuckets]atomic.Uint64
}

// metrics collects per-route request counters and latency histograms.
// The route map is copy-on-write: New registers every route before the
// server accepts traffic, so recording never takes the registration
// lock — scrapes no longer serialize concurrent requests.
type metrics struct {
	start  time.Time
	routes atomic.Pointer[map[string]*routeMetrics]
	mu     sync.Mutex // guards registration (map copy + swap) only
}

func newMetrics() *metrics {
	m := &metrics{start: time.Now()}
	empty := map[string]*routeMetrics{}
	m.routes.Store(&empty)
	return m
}

// register returns the route's counters, creating them on first use.
// Registration copies the map under the lock and swaps the pointer, so
// concurrent observers keep reading a consistent snapshot.
func (m *metrics) register(route string) *routeMetrics {
	if rm := (*m.routes.Load())[route]; rm != nil {
		return rm
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	old := *m.routes.Load()
	if rm := old[route]; rm != nil {
		return rm
	}
	next := make(map[string]*routeMetrics, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	rm := &routeMetrics{}
	next[route] = rm
	m.routes.Store(&next)
	return rm
}

// observe records one request against its route pattern — atomics
// only on the fast path (the route was registered at mux build time).
func (m *metrics) observe(route string, status int, elapsed time.Duration) {
	rm := (*m.routes.Load())[route]
	if rm == nil {
		rm = m.register(route)
	}
	rm.observe(status, elapsed)
}

func (rm *routeMetrics) observe(status int, elapsed time.Duration) {
	b := 0
	for b < len(latencyBucketBounds) && elapsed >= latencyBucketBounds[b] {
		b++
	}
	rm.count.Add(1)
	if status >= 400 {
		rm.errors.Add(1)
	}
	switch status {
	case http.StatusTooManyRequests:
		rm.shed.Add(1)
	case http.StatusServiceUnavailable:
		rm.timeouts.Add(1)
	}
	rm.buckets[b].Add(1)
	if elapsed > 0 {
		rm.durNanos.Add(uint64(elapsed))
	}
}

// RouteMetrics is a snapshot of one route's counters.
type RouteMetrics struct {
	Route    string
	Count    uint64
	Errors   uint64
	Shed     uint64
	Timeouts uint64
	Buckets  []uint64
	DurNanos uint64 // summed elapsed time (Prometheus _sum)
}

// snapshot returns the per-route counters sorted by route.
func (m *metrics) snapshot() []RouteMetrics {
	routes := *m.routes.Load()
	out := make([]RouteMetrics, 0, len(routes))
	for route, rm := range routes {
		r := RouteMetrics{
			Route: route, Count: rm.count.Load(), Errors: rm.errors.Load(),
			Shed: rm.shed.Load(), Timeouts: rm.timeouts.Load(),
			DurNanos: rm.durNanos.Load(),
			Buckets:  make([]uint64, numLatencyBuckets),
		}
		for i := range rm.buckets {
			r.Buckets[i] = rm.buckets[i].Load()
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Route < out[j].Route })
	return out
}

// statusRecorder captures the response status for the middleware.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

// Flush forwards to the underlying writer so event streams can push
// frames through the instrumentation wrapper.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
