package parallel

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestForRunsEveryIndexOnce covers item counts below, at and above
// the pool size: each index runs exactly once.
func TestForRunsEveryIndexOnce(t *testing.T) {
	const w = 8
	for _, n := range []int{1, w - 1, w, 3*w + 1} {
		counts := make([]atomic.Int32, n)
		For(n, w, func(_, i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("n=%d: index %d ran %d times", n, i, c)
			}
		}
	}
}

// TestForEmpty: a non-positive item count never calls fn.
func TestForEmpty(t *testing.T) {
	for _, n := range []int{0, -1} {
		For(n, 4, func(_, i int) { t.Errorf("n=%d: fn called with index %d", n, i) })
	}
}

// workerIDs runs For and returns the set of worker ids it used.
func workerIDs(n, workers int) map[int]bool {
	var mu sync.Mutex
	ids := map[int]bool{}
	For(n, workers, func(worker, _ int) {
		mu.Lock()
		ids[worker] = true
		mu.Unlock()
	})
	return ids
}

// TestForWorkerBounds: the pool never exceeds n, and a non-positive
// worker count stays below GOMAXPROCS.
func TestForWorkerBounds(t *testing.T) {
	for id := range workerIDs(3, 20) {
		if id < 0 || id >= 3 {
			t.Fatalf("workers > n: id %d outside [0, 3)", id)
		}
	}
	procs := runtime.GOMAXPROCS(0)
	for _, workers := range []int{0, -5} {
		for id := range workerIDs(40, workers) {
			if id < 0 || id >= procs {
				t.Fatalf("workers=%d: id %d outside [0, %d)", workers, id, procs)
			}
		}
	}
}

// TestForDenseIDs holds every call until the whole pool is inside fn,
// so each worker claims exactly one item: the ids used are exactly
// 0..workers-1.
func TestForDenseIDs(t *testing.T) {
	const workers = 6
	var arrived sync.WaitGroup
	arrived.Add(workers)
	all := make(chan struct{})
	go func() { arrived.Wait(); close(all) }()
	var mu sync.Mutex
	ids := map[int]bool{}
	For(workers, workers, func(worker, _ int) {
		mu.Lock()
		ids[worker] = true
		mu.Unlock()
		arrived.Done()
		select {
		case <-all:
		case <-time.After(10 * time.Second):
			t.Error("pool never had every worker inside fn at once")
		}
	})
	for id := 0; id < workers; id++ {
		if !ids[id] {
			t.Fatalf("ids %v are not dense in [0, %d)", ids, workers)
		}
	}
}

func TestFirstError(t *testing.T) {
	first, second := errors.New("first"), errors.New("second")
	if err := FirstError([]error{nil, first, nil, second}); err != first {
		t.Fatalf("FirstError = %v, want the lowest-index error", err)
	}
	if err := FirstError(make([]error, 10)); err != nil {
		t.Fatalf("FirstError of no failures = %v", err)
	}
}

func TestWorkers(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for req, want := range map[int]int{-3: procs, 0: procs, 1: 1, 12: 12} {
		if got := Workers(req); got != want {
			t.Fatalf("Workers(%d) = %d, want %d", req, got, want)
		}
	}
}
