package rta

import (
	"time"

	"repro/internal/can"
	"repro/internal/errormodel"
	"repro/internal/eventmodel"
)

// oracleAnalyze is Analyze over the oracle kernel.
func oracleAnalyze(msgs []Message, cfg Config) (*Report, error) {
	p, err := prepare(msgs, cfg)
	if err != nil {
		return nil, err
	}
	memo := newEtaMemo(p.ordered)
	for i := range p.ordered {
		p.rep.Results[i] = oracleAnalyzeOne(p.ordered, p.wire, i, cfg, memo)
		p.rep.Results[i].Priority = i
	}
	return p.rep, nil
}

// oracleAnalyzeOne is the cold-start per-message analysis the warm-started
// kernel replaced, kept verbatim as the differential oracle: every
// fixpoint starts from its blocking term.
//
// oracleAnalyzeOne computes the response time of the message at index i of the
// priority-ordered slice. Apart from the worker-owned memo it is a pure
// function of its inputs and safe to fan out across goroutines.
func oracleAnalyzeOne(ordered []Message, wire []time.Duration, i int, cfg Config, memo *etaMemo) Result {
	m := ordered[i]
	horizon := cfg.horizon()
	errs := cfg.errors()

	res := Result{
		Message:  m,
		C:        wire[i],
		BCRT:     cfg.Bus.FrameTime(m.Frame, can.StuffingNominal),
		Deadline: cfg.DeadlineModel.Deadline(m),
	}
	// Blocking: the longest lower-priority frame that can have just won
	// arbitration when m is queued.
	for k := i + 1; k < len(ordered); k++ {
		if wire[k] > res.Blocking {
			res.Blocking = wire[k]
		}
	}
	// Error context: any frame at this priority level or above may be the
	// one that needs retransmission.
	ectx := errormodel.Context{ErrorFrame: cfg.Bus.ErrorOverheadTime()}
	for k := 0; k <= i; k++ {
		if wire[k] > ectx.CMax {
			ectx.CMax = wire[k]
		}
	}

	markUnschedulable := func() Result {
		res.BusyPeriod = Unschedulable
		res.WCRT = Unschedulable
		res.Schedulable = false
		return res
	}

	// An effectively unbounded activation jitter (the sentinel an
	// overloaded upstream resource propagates) admits no finite
	// response; without this guard the jitter term overflows the WCRT
	// sum below and wraps negative.
	if m.Event.Jitter >= eventmodel.Unbounded/2 {
		return markUnschedulable()
	}

	if cfg.ClassicSingleInstance {
		res.Instances = 1
		res.BusyPeriod = res.Blocking + res.C
		w, ok := oracleQueueingDelay(memo, wire, i, 0, res.Blocking, cfg, ectx, horizon)
		if !ok {
			return markUnschedulable()
		}
		res.WCRT = m.Event.Jitter + w + res.C
		res.Schedulable = res.WCRT <= res.Deadline
		return res
	}

	// Level-i busy period: fixpoint of
	// L = B + E(L) + sum_{k<=i} eta_k+(L) * C_k.
	L := res.Blocking + res.C
	for iter := 0; ; iter++ {
		next := res.Blocking + errs.Overhead(L, ectx)
		for k := 0; k <= i; k++ {
			next += time.Duration(memo.at(k, L)) * wire[k]
		}
		if next == L {
			break
		}
		if next > horizon || iter >= maxIterations {
			return markUnschedulable()
		}
		L = next
	}
	res.BusyPeriod = L
	res.Instances = m.Event.EtaPlus(L)
	if res.Instances < 1 {
		res.Instances = 1
	}

	// Examine every instance inside the busy period; the worst response
	// is not necessarily the first (Davis et al.).
	var wcrt time.Duration
	for q := 0; q < res.Instances; q++ {
		w, ok := oracleQueueingDelay(memo, wire, i, q, res.Blocking, cfg, ectx, horizon)
		if !ok {
			return markUnschedulable()
		}
		r := m.Event.Jitter + w + res.C - time.Duration(q)*m.Event.Period
		if r > wcrt {
			wcrt = r
		}
	}
	res.WCRT = wcrt
	res.Schedulable = res.WCRT <= res.Deadline
	return res
}

// oracleQueueingDelay solves the fixpoint
//
//	w = B + q*C_m + E(w + C_m) + sum_{k < i} eta_k+(w + tau_bit) * C_k
//
// returning (w, true) or (0, false) if the iteration diverges.
func oracleQueueingDelay(memo *etaMemo, wire []time.Duration, i, q int,
	blocking time.Duration, cfg Config, ectx errormodel.Context,
	horizon time.Duration) (time.Duration, bool) {

	errs := cfg.errors()
	bitTime := cfg.Bus.BitTime()
	base := blocking + time.Duration(q)*wire[i]
	w := base
	for iter := 0; ; iter++ {
		next := base + errs.Overhead(w+wire[i], ectx)
		for k := 0; k < i; k++ {
			next += time.Duration(memo.at(k, w+bitTime)) * wire[k]
		}
		if next == w {
			return w, true
		}
		if next > horizon || iter >= maxIterations {
			return 0, false
		}
		w = next
	}
}
