package cache

import "repro/internal/contenthash"

// Store is a content-addressed map from input digests to converged
// analysis values. Implementations are safe for concurrent use, and a
// Store satisfies rta.ResultCache directly. A Store may drop entries
// at any time (eviction, corruption, version skew); a miss is always
// answered by recomputing from the same inputs, so lifetime is purely
// a capacity/perf knob, never a correctness one.
type Store interface {
	// Get returns the value stored under key.
	Get(key contenthash.Digest) (any, bool)
	// Put inserts (or refreshes) a value.
	Put(key contenthash.Digest, value any)
	// Stats snapshots the store counters.
	Stats() Stats
}

// Leveled is implemented by stores with a distinguished in-process
// primary level (every store in this package). Sessions that must keep
// their hit/miss statistics independent of shared second-level state —
// the campaign rows embed them, and distributed shards must reproduce
// the serial rows byte-for-byte — resolve through these so a
// second-level hit is observable (and countable) separately from a
// primary hit.
type Leveled interface {
	Store
	// GetLeveled is Get plus the level that satisfied it: primary
	// reports whether the value came from the in-process level.
	GetLeveled(key contenthash.Digest) (v any, primary, ok bool)
	// GetPrimary consults the in-process level only.
	GetPrimary(key contenthash.Digest) (any, bool)
	// PutPrimary installs into the in-process level only.
	PutPrimary(key contenthash.Digest, value any)
}

// GetLeveled resolves through the Leveled fast path when the store has
// one; a flat store is its own primary level.
func GetLeveled(s Store, key contenthash.Digest) (v any, primary, ok bool) {
	if l, isLeveled := s.(Leveled); isLeveled {
		return l.GetLeveled(key)
	}
	v, ok = s.Get(key)
	return v, true, ok
}

// GetPrimary consults only the in-process level of s.
func GetPrimary(s Store, key contenthash.Digest) (any, bool) {
	if l, isLeveled := s.(Leveled); isLeveled {
		return l.GetPrimary(key)
	}
	return s.Get(key)
}

// PutPrimary installs into only the in-process level of s.
func PutPrimary(s Store, key contenthash.Digest, value any) {
	if l, isLeveled := s.(Leveled); isLeveled {
		l.PutPrimary(key, value)
		return
	}
	s.Put(key, value)
}

// Stats is a counter snapshot of a Store. The first block applies to
// every implementation; Bytes/MaxBytes/Corrupt/Skipped are Disk-level,
// and the L1/L2 block is filled by Tiered.
type Stats struct {
	// Hits and Misses count Get outcomes across all users of the store.
	Hits, Misses uint64
	// Evictions counts entries dropped under budget pressure.
	Evictions uint64
	// Entries is the current resident entry count.
	Entries int
	// Cost is the resident total in cost units; Capacity the budget
	// (in-process level).
	Cost, Capacity int

	// Bytes is the disk level's segment total, entry prefixes and
	// entries no longer indexed included, and MaxBytes its byte budget.
	Bytes, MaxBytes int64
	// Corrupt counts entries dropped as unreadable (truncation, crc
	// mismatch, version skew) — each read as a miss.
	Corrupt uint64
	// Skipped counts Puts of values the wire codec does not carry.
	Skipped uint64

	// L1Hits/L2Hits split a tiered store's hits by serving level;
	// Promotions counts L2 hits copied forward into L1.
	L1Hits, L2Hits, Promotions uint64
	// L1 and L2 snapshot the composed levels of a tiered store.
	L1, L2 *Stats
}

// HitRate returns hits as a fraction of all Gets (0 when idle).
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}
