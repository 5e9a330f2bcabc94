// Package cache is the content-addressed result store behind the
// what-if sessions, campaigns and the analysis service: a Store maps
// 128-bit input digests (internal/contenthash) to converged analysis
// values, so any two consumers that agree on the inputs share the
// converged result instead of recomputing it: a supplier revision
// re-verifies only what it changed, and a rerun over a warm directory
// re-verifies nothing.
//
// Three implementations compose into a two-level hierarchy: LRU is the
// in-process cost-weighted level every what-if session memoizes into
// (L1), Disk is a shared on-disk level holding crc-checked versioned
// binary records in append-only segment files, indexed by digest in
// memory (L2), and Tiered stacks one over the other with promotion on
// second-level hits and write-through on Put. Eviction, corruption and
// version skew never affect correctness: every degraded path reads as
// a miss and the caller recomputes from the same inputs.
package cache
