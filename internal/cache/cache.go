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

// Stats is a counter snapshot of a Store. The first block applies to
// every implementation; Bytes/MaxBytes/Corrupt/Skipped are Disk-level.
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
}
