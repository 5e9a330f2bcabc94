// Package whatif is the incremental what-if analysis engine: it
// re-verifies a network after a typed change for the cost of what the
// change can actually reach, instead of re-running every analysis from
// scratch.
//
// The paper's integration story is an iteration loop: a supplier
// delivers a revised ECU interface (new send jitter, period, priority,
// frame length), and the OEM must re-verify the integrated network.
// The service's sessions, a campaign scenario's perturbation and the
// extensibility search re-verify edits that leave most of the model
// untouched; this package makes such a revision cost what it reaches.
// Jitter sweeps, tolerance tables and the priority-assignment GA
// analyse clones instead: whole-matrix jitter scaling and permuted
// priorities leave the store little to reuse, and measured slower
// through sessions (DESIGN.md, "Consumers").
//
// # Sessions
//
//   - BusSession wraps one communication matrix (kmatrix.KMatrix) under
//     one rta.Config. Apply typed Changes (edit jitter / period /
//     priority / DLC / deadline, scale jitters, reassign identifiers,
//     add or remove a message), then Analyze.
//   - SystemSession wraps a multi-resource core.System (CAN buses,
//     ECUs, TDMA buses, gateways, propagation links, paths). Apply
//     SystemChanges (element edits, gateway retuning, TDMA slot edits),
//     then Analyze: core's own compositional fixpoint
//     (core.System.AnalyzeWith) over one scratch System the session
//     reloads in place, with the session's per-resource memo as its
//     core.Analyzers.
//
// # Dependency graph and invalidation
//
// Dirtiness is not tracked with explicit flags; it falls out of
// content addressing. Every analysis unit is a pure function of an
// explicit input interface, and its converged result is memoized under
// a digest of exactly those inputs in the session's store: an LRU, or
// a cache.Tiered whose shared level the memo consults after the LRU:
//
//   - per CAN message (rta.AnalyzeCached): the analysis configuration,
//     the priority-ordered messages at and above the level (their event
//     models and wire times) and the worst lower-priority wire time. A
//     jitter edit at priority p therefore re-analyses only priorities
//     >= p; a length (DLC) edit also dirties higher priorities through
//     the blocking term — exactly the dependency structure of the
//     response-time equations.
//   - per resource (SystemSession): the resource configuration plus the
//     activation models of its elements — its converged input
//     interface. During the global fixpoint a resource is re-analysed
//     only in iterations where propagation actually changed one of its
//     activation models; after an edit, resources the change cannot
//     reach hit the store at every iteration.
//
// The wiring (message -> bus -> gateway -> downstream event-model
// interfaces -> ECU/TDMA resources) enters through the propagation
// links of core.System, snapshotted via the core wiring accessors.
//
// # Hashing scheme
//
// Keys are 128-bit contenthash digests with a domain tag per result
// kind. Per-message keys are derived in O(n) per bus pass by chaining:
// a running hasher absorbs the configuration and then the
// priority-ordered messages; rank i's key is a snapshot of the chain
// after message i plus the blocking term. See rta.AnalyzeCached for
// the exact field inventory.
//
// # Determinism
//
// An incremental result is byte-identical to a from-scratch
// rta.Analyze / core.Analyze of the edited model, for any change order,
// any cache state (including evictions under a tiny budget) and any
// worker count: every memoized value is the output of the same pure
// function the from-scratch path runs, keyed by all of its inputs.
// Sessions therefore never change results, only which analyses run.
// Their counters (Stats) are pinned to the LRU, so a warm shared level
// changes them no more than results; trace spans read the same ones.
//
// Reports returned by sessions are shared with the memo store and must
// be treated as read-only.
package whatif
