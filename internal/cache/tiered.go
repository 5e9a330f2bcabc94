package cache

import (
	"sync/atomic"

	"repro/internal/contenthash"
)

// Tiered composes a fast in-process level (L1, typically an LRU) over
// a shared second level (L2, typically a Disk store): Get resolves L1
// first, promotes L2 hits into L1, and misses both; Put writes
// through to both levels. The L2 is strictly a compute-avoidance
// layer — sessions that pin their statistics resolve through the
// Leveled methods so an L2 hit is distinguishable from a primary one.
//
// Tiered is safe for concurrent use when its levels are.
type Tiered struct {
	l1, l2 Store

	l1Hits     atomic.Uint64
	l2Hits     atomic.Uint64
	misses     atomic.Uint64
	promotions atomic.Uint64
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
	v, _, ok := t.GetLeveled(key)
	return v, ok
}

// GetLeveled implements Leveled: primary reports an L1 hit; an L2 hit
// is promoted into L1 before it returns.
func (t *Tiered) GetLeveled(key contenthash.Digest) (any, bool, bool) {
	if v, ok := t.l1.Get(key); ok {
		t.l1Hits.Add(1)
		return v, true, true
	}
	if v, ok := t.l2.Get(key); ok {
		t.l2Hits.Add(1)
		t.promotions.Add(1)
		t.l1.Put(key, v)
		return v, false, true
	}
	t.misses.Add(1)
	return nil, false, false
}

// GetPrimary implements Leveled: L1 only, no promotion.
func (t *Tiered) GetPrimary(key contenthash.Digest) (any, bool) {
	return t.l1.Get(key)
}

// Put writes through to both levels.
func (t *Tiered) Put(key contenthash.Digest, value any) {
	t.l1.Put(key, value)
	t.l2.Put(key, value)
}

// PutPrimary implements Leveled: L1 only. Sessions use it for values
// that are never resolved against L2 (whole-bus report snapshots), so
// the shared level is not polluted with records nothing will read.
func (t *Tiered) PutPrimary(key contenthash.Digest, value any) {
	t.l1.Put(key, value)
}

// Stats combines the per-level counters: Hits/Misses describe the
// tiered view, L1/L2 snapshot the composed stores.
func (t *Tiered) Stats() Stats {
	l1 := t.l1.Stats()
	l2 := t.l2.Stats()
	s := Stats{
		L1Hits:     t.l1Hits.Load(),
		L2Hits:     t.l2Hits.Load(),
		Promotions: t.promotions.Load(),
		Misses:     t.misses.Load(),
		Evictions:  l1.Evictions + l2.Evictions,
		Entries:    l1.Entries,
		Cost:       l1.Cost,
		Capacity:   l1.Capacity,
		Bytes:      l2.Bytes,
		MaxBytes:   l2.MaxBytes,
		Corrupt:    l2.Corrupt,
		Skipped:    l2.Skipped,
		L1:         &l1,
		L2:         &l2,
	}
	s.Hits = s.L1Hits + s.L2Hits
	return s
}

// Shared is a process's shared result level, the tiers every private
// LRU stacks over. Disk and Remote are nil when not configured.
type Shared struct {
	// Store is the composed level: the Disk alone, the Remote alone,
	// the Disk over the Remote (remote hits are promoted onto disk), or
	// nil when neither is configured.
	Store  Store
	Disk   *Disk
	Remote *Remote
}

// OpenShared opens the shared level from its settings: a Disk in dir
// holding at most maxBytes (none when dir is empty) over a Remote for
// the cacheserver at remoteURL (none when it is empty). On error it
// leaves nothing open. The caller must Close the result.
func OpenShared(dir string, maxBytes int64, remoteURL string) (*Shared, error) {
	s := &Shared{}
	if dir != "" {
		d, err := NewDisk(dir, maxBytes)
		if err != nil {
			return nil, err
		}
		s.Disk, s.Store = d, d
	}
	if remoteURL != "" {
		r, err := NewRemote(RemoteConfig{BaseURL: remoteURL})
		if err != nil {
			s.Close()
			return nil, err
		}
		s.Remote, s.Store = r, r
		if s.Disk != nil {
			s.Store = NewTiered(s.Disk, r)
		}
	}
	return s, nil
}

// Close flushes the Remote's write-behind queue, so its results reach
// the fleet, then closes the Disk's segment files.
func (s *Shared) Close() {
	if s.Remote != nil {
		s.Remote.Close()
	}
	if s.Disk != nil {
		s.Disk.Close()
	}
}
