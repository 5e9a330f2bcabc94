package whatif

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/contenthash"
)

func digestOf(x uint64) contenthash.Digest {
	h := contenthash.New(99)
	h.Word(x)
	return h.Sum()
}

func TestStoreLRUEviction(t *testing.T) {
	s := cache.NewLRU(2)
	s.Put(digestOf(1), 1)
	s.Put(digestOf(2), 2)
	if _, ok := s.Get(digestOf(1)); !ok {
		t.Fatal("entry 1 evicted below capacity")
	}
	// 1 is now most recent; inserting 3 must evict 2.
	s.Put(digestOf(3), 3)
	if _, ok := s.Get(digestOf(2)); ok {
		t.Fatal("LRU entry 2 not evicted")
	}
	if _, ok := s.Get(digestOf(1)); !ok {
		t.Fatal("recently used entry 1 evicted")
	}
	st := s.Stats()
	if st.Evictions != 1 || st.Entries != 2 || st.Capacity != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// Refreshing an existing key must not grow the store.
	s.Put(digestOf(1), 10)
	if s.Len() != 2 {
		t.Fatalf("refresh grew the store to %d", s.Len())
	}
	if v, _ := s.Get(digestOf(1)); v != 10 {
		t.Fatalf("refresh did not replace the value: %v", v)
	}
}

func TestStoreDefaultCapacity(t *testing.T) {
	if got := cache.NewLRU(0).Stats().Capacity; got != cache.DefaultCapacity {
		t.Fatalf("capacity = %d, want %d", got, cache.DefaultCapacity)
	}
}

// TestSessionCounters pins the headline cache behaviour on the session:
// a cold analysis misses everything, a repeat is one report hit, a
// single low-priority jitter edit re-analyses only the dirty suffix,
// and a revert to an already-seen variant is a 100% hit.
func TestSessionCounters(t *testing.T) {
	k := testMatrix(24)
	sess := NewBusSession(k, worstCfg(), Options{Workers: 1})

	rep, err := sess.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	st := sess.Stats()
	if st.Misses != 24 || st.Hits != 0 || st.ReportHits != 0 {
		t.Fatalf("cold analysis: %+v", st)
	}

	// Repeat without changes: one whole-report hit, no per-message work.
	if _, err := sess.Analyze(); err != nil {
		t.Fatal(err)
	}
	st = sess.Stats()
	if st.ReportHits != 1 || st.Misses != 24 || st.Hits != 0 {
		t.Fatalf("repeat analysis: %+v", st)
	}

	// Single jitter edit on the lowest-priority message: every message
	// above it hits, only the edited one is recomputed.
	lowest := rep.Results[len(rep.Results)-1].Message.Name
	if err := sess.Apply(SetJitter{Message: lowest, Jitter: 1234 * us}); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Analyze(); err != nil {
		t.Fatal(err)
	}
	st = sess.Stats()
	if st.Hits != 23 || st.Misses != 25 {
		t.Fatalf("single-edit analysis: %+v", st)
	}

	// Revert-to-original: a 100%% hit (the base variant is memoized).
	sess.Reset()
	if _, err := sess.Analyze(); err != nil {
		t.Fatal(err)
	}
	st = sess.Stats()
	if st.ReportHits != 2 {
		t.Fatalf("revert analysis: %+v", st)
	}
}

// TestTinyBudgetStillCorrect runs an edit loop under a store too small
// to hold even one variant: permanent eviction churn, identical
// results.
func TestTinyBudgetStillCorrect(t *testing.T) {
	k := testMatrix(20)
	cfg := worstCfg()
	sess := NewBusSession(k, cfg, Options{Store: cache.NewLRU(4), Workers: 2})
	for i := 0; i < 6; i++ {
		name := k.Messages[i%len(k.Messages)].Name
		if err := sess.Apply(SetJitter{Message: name, Jitter: time.Duration(i) * 321 * us}); err != nil {
			t.Fatal(err)
		}
		got, err := sess.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		if want := fullAnalyze(t, sess.Matrix(), cfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("edit %d: tiny-budget report differs from full re-analysis", i)
		}
	}
	if ev := sess.Stats().Store.Evictions; ev == 0 {
		t.Fatal("tiny budget produced no evictions — test is not exercising churn")
	}
}
