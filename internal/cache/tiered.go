package cache

import "repro/internal/contenthash"

// Tiered composes a fast in-process level (L1, typically an LRU) over
// a shared second level (L2, typically a Disk store): Get resolves L1
// first, promotes L2 hits into L1, and misses both; Put writes
// through to both levels. The L2 is strictly a compute-avoidance
// layer — a what-if session reads a Tiered store as its two levels
// and keeps its own counters, so an L2 hit never shows in them.
//
// Tiered is safe for concurrent use when its levels are.
type Tiered struct {
	l1, l2 Store
}

// NewTiered stacks l1 over l2.
func NewTiered(l1, l2 Store) *Tiered {
	return &Tiered{l1: l1, l2: l2}
}

// L1 returns the in-process level.
func (t *Tiered) L1() Store { return t.l1 }

// L2 returns the shared second level.
func (t *Tiered) L2() Store { return t.l2 }

// Get resolves L1 → L2 → miss, promoting L2 hits into L1.
func (t *Tiered) Get(key contenthash.Digest) (any, bool) {
	if v, ok := t.l1.Get(key); ok {
		return v, true
	}
	v, ok := t.l2.Get(key)
	if ok {
		t.l1.Put(key, v)
	}
	return v, ok
}

// Put writes through to both levels.
func (t *Tiered) Put(key contenthash.Digest, value any) {
	t.l1.Put(key, value)
	t.l2.Put(key, value)
}

// Stats reads the levels' own counters: hits at either level, the
// L2's misses, both levels' evictions, the L1's residency and the L2's
// disk figures. A level shared with other users brings their traffic
// along.
func (t *Tiered) Stats() Stats {
	s, l2 := t.l1.Stats(), t.l2.Stats()
	s.Hits += l2.Hits
	s.Misses = l2.Misses
	s.Evictions += l2.Evictions
	s.Bytes, s.MaxBytes, s.Corrupt, s.Skipped = l2.Bytes, l2.MaxBytes, l2.Corrupt, l2.Skipped
	return s
}
