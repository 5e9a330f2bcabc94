package cache

import (
	"container/list"
	"sync"

	"repro/internal/contenthash"
	"repro/internal/gateway"
	"repro/internal/osek"
	"repro/internal/rta"
	"repro/internal/tdma"
)

// DefaultCapacity bounds an LRU constructed with no explicit budget,
// in cost units (one unit ~ one per-message result, a few hundred
// bytes; a whole-resource report costs one unit per contained result).
// 32k units keep a GA generation or a full tolerance-table row set
// resident within a few megabytes.
const DefaultCapacity = 1 << 15

// LRU is the in-process content-addressed memo shared by what-if
// sessions — the L1 of a tiered hierarchy. It maps input digests to
// converged analysis results (per-message result pointers,
// whole-resource report pointers). The budget is cost-weighted, not
// entry-counted: a memoized whole-bus report weighs as much as its
// per-message results, so long scenario batches reach a bounded steady
// state instead of accumulating one report per variant.
//
// LRU is safe for concurrent use and implements Store and
// rta.ResultCache.
type LRU struct {
	mu        sync.Mutex
	capacity  int
	cost      int
	ll        *list.List // front = most recently used
	items     map[contenthash.Digest]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
}

type lruEntry struct {
	key   contenthash.Digest
	value any
	cost  int
}

// entryCost weighs a value in per-message-result units.
func entryCost(v any) int {
	n := 1
	switch r := v.(type) {
	case *rta.Report:
		n = len(r.Results)
	case *osek.Report:
		n = len(r.Results)
	case *tdma.Report:
		n = len(r.Results)
	case *gateway.Report:
		n = len(r.Flows)
	}
	if n < 1 {
		n = 1
	}
	return n
}

// NewLRU returns an empty store holding at most capacity cost units
// (<= 0 selects DefaultCapacity).
func NewLRU(capacity int) *LRU {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &LRU{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[contenthash.Digest]*list.Element),
	}
}

// Get returns the value stored under key and marks it most recently
// used.
func (s *LRU) Get(key contenthash.Digest) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		s.ll.MoveToFront(el)
		s.hits++
		return el.Value.(*lruEntry).value, true
	}
	s.misses++
	return nil, false
}

// Put inserts (or refreshes) a value, evicting least-recently-used
// entries beyond the cost budget.
func (s *LRU) Put(key contenthash.Digest, value any) {
	cost := entryCost(value)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		e := el.Value.(*lruEntry)
		s.cost += cost - e.cost
		e.value, e.cost = value, cost
		s.ll.MoveToFront(el)
	} else {
		s.items[key] = s.ll.PushFront(&lruEntry{key: key, value: value, cost: cost})
		s.cost += cost
	}
	for s.cost > s.capacity && s.ll.Len() > 1 {
		back := s.ll.Back()
		e := back.Value.(*lruEntry)
		delete(s.items, e.key)
		s.ll.Remove(back)
		s.cost -= e.cost
		s.evictions++
	}
}

// Len returns the number of resident entries.
func (s *LRU) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}

// Stats returns a snapshot of the store counters.
func (s *LRU) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits: s.hits, Misses: s.misses, Evictions: s.evictions,
		Entries: s.ll.Len(), Cost: s.cost, Capacity: s.capacity,
	}
}
