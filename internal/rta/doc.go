// Package rta implements worst-case response-time analysis for CAN
// messages under fixed-priority non-preemptive arbitration.
//
// The analysis is the revised form of Tindell's classic CAN analysis
// given by Davis, Burns, Bril and Lukkien ("Controller Area Network (CAN)
// schedulability analysis: Refuted, revisited and revised", Real-Time
// Systems 35, 2007), extended with the error overhead functions of
// Tindell & Burns (1994) and Punnekkat et al. (RTAS 2000) from package
// errormodel, and driven by the standard event models of package
// eventmodel so that queueing jitter and transient bursts are covered.
//
// For a message m with wire time C_m, queueing jitter J_m and priority
// level m, the analysis computes
//
//	Blocking:     B_m = max_{k in lp(m)} C_k
//	Busy period:  L_m = B_m + E(L_m) + Σ_{k in hep(m)} η_k⁺(L_m)·C_k
//	Instances:    Q_m = η_m⁺(L_m)
//	Queue delay:  w_m(q) = B_m + q·C_m + E(w_m(q)+C_m)
//	                      + Σ_{k in hp(m)} η_k⁺(w_m(q)+τ_bit)·C_k
//	Response:     R_m = max_{q=0..Q_m-1} ( J_m + w_m(q) − q·T_m + C_m )
//
// where η⁺ is the upper arrival curve of the activating event model,
// E(·) the error overhead, and τ_bit one bit time (the arbitration
// granularity of the non-preemptive bus).
//
// The classic single-instance analysis (shown by Davis et al. to be
// optimistic when R may exceed T) is available as an ablation via
// Config.ClassicSingleInstance.
//
// The fixpoints resume where the previous one converged: w_m(q+1)
// starts from w_m(q) + C_m, and L_m from the busy period of the rank
// above when the worker holds it. Every iterated function is monotone,
// so a start at or below the least fixpoint reaches that same fixpoint;
// a guard falls back to the cold iteration wherever the cold one could
// end differently (horizon or iteration cap), so reports are
// bit-identical to cold iteration from the blocking term.
//
// Busy periods that provably cannot converge are not iterated at all.
// At a level whose prefix utilisation U = Σ_{k in hep(m)} C_k/T_k
// exceeds 1 (by more than the float sum's rounding error), the busy
// period's right-hand side is at least U·L > L for every L > 0, there
// and at every level below (the load rule);
// the level below one whose busy period the same worker saw cross the
// horizon has a busy period beyond the horizon too (the rank rule).
// Both end where the iteration would have: Unschedulable. They apply
// to the error models of package errormodel and not to the classic
// single-instance ablation.
//
// This is the formal core of the source paper's Section 3.2: the
// worst-case message response analysis that replaces bus-load folklore
// and test equipment in the OEM's integration verification.
package rta
