// Package tdma implements worst-case response analysis for a
// time-division bus: a static cyclic schedule of slots, each owned by
// one message, as in the FlexRay static segment or the TTP bus the paper
// cites ([5] Kopetz & Gruensteidl). SymTA/S calls this activation scheme
// "TimeTable"; the paper lists it among the mechanisms the technology
// covers.
//
// The analytic contrast with CAN is the point of the package: a TDMA
// message's worst-case response is governed by the cycle structure and
// degrades only gently with jitter (backlog), whereas CAN responses
// degrade with the jitter of every higher-priority message. The ablation
// benchmarks compare the two under the same workload.
//
// Worst case for a message owning one slot per cycle of length Z:
// an instance arriving just after its slot has started waits up to a full
// cycle; queued predecessors each cost one more cycle. With delta-(n) the
// minimum span of n consecutive arrivals (package eventmodel),
//
//	R = max_{n >= 1} ( n*Z + S - delta-(n) )
//
// where S is the service completion offset inside the slot (transmission
// time). The response is measured from the actual arrival of the
// instance. The maximum is finite iff the long-run arrival rate does not
// exceed one instance per cycle.
//
// delta- is convex in n, so R_n rises up to the first depth n0 at which
// arrivals are spaced a cycle apart and the backlog stops growing. The
// analysis finds n0 by a galloping and a binary search instead of
// scanning every depth, and returns max(R_1, R_n0).
package tdma
