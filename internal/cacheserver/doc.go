// Package cacheserver is the fleet-shared end of the cache hierarchy:
// a content-addressed HTTP service over a cache.Disk store, speaking
// the minimal GET/PUT/HEAD record protocol that cache.Remote consumes.
// Records travel as the exact versioned crc-framed bytes Disk appends
// to its segments, verified on both ends, so a fleet of workers analyzes each popular
// K-Matrix configuration once and shares the converged result by
// content hash — the paper's many-suppliers-one-verification workflow
// (Section 4) as infrastructure. Invalid or skewed records are refused
// on write and quarantined on read; the client treats every degraded
// answer as a miss, so the service can never change an analysis byte.
package cacheserver
