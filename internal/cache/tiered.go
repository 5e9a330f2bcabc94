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
