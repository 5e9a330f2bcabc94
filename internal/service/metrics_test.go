package service

import (
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestRouteMetricsObserve pins the status classification and bucket
// assignment of the lock-free observe path.
func TestRouteMetricsObserve(t *testing.T) {
	m := newMetrics()
	m.observe("GET /x", http.StatusOK, 500*time.Microsecond)        // bucket 0
	m.observe("GET /x", http.StatusTooManyRequests, 5*time.Second)  // bucket 4, error, shed
	m.observe("GET /x", http.StatusServiceUnavailable, time.Minute) // bucket 5, error, timeout
	m.observe("GET /x", http.StatusNotFound, time.Millisecond)      // bucket 1 (>= bound), error

	snap := m.snapshot()
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d routes, want 1", len(snap))
	}
	r := snap[0]
	if r.Route != "GET /x" || r.Count != 4 || r.Errors != 3 || r.Shed != 1 || r.Timeouts != 1 {
		t.Fatalf("unexpected counters: %+v", r)
	}
	wantBuckets := []uint64{1, 1, 0, 0, 1, 1}
	if !reflect.DeepEqual(r.Buckets, wantBuckets) {
		t.Fatalf("buckets = %v, want %v", r.Buckets, wantBuckets)
	}
	wantDur := uint64(500*time.Microsecond + 5*time.Second + time.Minute + time.Millisecond)
	if r.DurNanos != wantDur {
		t.Fatalf("DurNanos = %d, want %d", r.DurNanos, wantDur)
	}
}

// TestMetricsConcurrentObserve hammers registration and observation
// from many goroutines; under -race it proves the copy-on-write route
// map and the atomic counters need no lock on the hot path.
func TestMetricsConcurrentObserve(t *testing.T) {
	m := newMetrics()
	const goroutines, perG = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			route := fmt.Sprintf("GET /r%d", g%4)
			for i := 0; i < perG; i++ {
				m.observe(route, http.StatusOK, time.Millisecond)
				if i%100 == 0 {
					m.snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	var total uint64
	for _, r := range m.snapshot() {
		total += r.Count
	}
	if total != goroutines*perG {
		t.Fatalf("observed %d requests, want %d", total, goroutines*perG)
	}
}
