package rta

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/can"
	"repro/internal/errormodel"
	"repro/internal/eventmodel"
)

// maxIterations caps every fixpoint loop. The iterated functions are
// monotone and quantised to bit times, so a well-behaved system converges
// in a handful of steps; hitting the cap means the busy period is
// diverging and the message is reported unschedulable.
const maxIterations = 100_000

// Analyze computes worst-case response times for all messages on one bus.
// Messages are prioritised by their CAN identifiers (lower wins); the
// input order is irrelevant. Analyze fails on invalid input (bad frames,
// invalid event models, duplicate identifiers).
func Analyze(msgs []Message, cfg Config) (*Report, error) {
	p, err := prepare(msgs, cfg)
	if err != nil {
		return nil, err
	}
	k := newKernel(p)
	for i := range p.ordered {
		p.rep.Results[i] = k.analyzeOne(i, 0)
	}
	return p.rep, nil
}

// prepared holds the shared read-only inputs of the per-message
// analyses: the priority-ordered message set, the wire times under the
// configured stuffing, the warm-start bound (see resume) and the report
// skeleton, which echoes the configuration.
type prepared struct {
	ordered []Message
	wire    []time.Duration
	warmCap time.Duration
	rep     *Report
}

// prepare validates the input, orders it by priority and computes the
// shared wire times. Both Analyze and AnalyzeCached start here; the
// per-message analyses that follow are pure functions of the result.
func prepare(msgs []Message, cfg Config) (*prepared, error) {
	if err := cfg.Bus.Validate(); err != nil {
		return nil, err
	}
	if b, ok := cfg.Errors.(errormodel.Burst); ok {
		if err := b.Validate(); err != nil {
			return nil, err
		}
	}
	for _, m := range msgs {
		if err := m.Validate(); err != nil {
			return nil, err
		}
	}
	ordered := make([]Message, len(msgs))
	copy(ordered, msgs)
	slices.SortStableFunc(ordered, byPriority)
	for i := 1; i < len(ordered); i++ {
		a, b := ordered[i-1], ordered[i]
		if a.Frame.ID == b.Frame.ID && a.Frame.Format == b.Frame.Format {
			return nil, fmt.Errorf("rta: messages %q and %q share identifier %s",
				a.Name, b.Name, a.Frame.ID)
		}
	}

	p := &prepared{
		ordered: ordered,
		wire:    make([]time.Duration, len(ordered)),
		rep: &Report{
			Results: make([]Result, len(ordered)),
			Config:  cfg,
		},
	}
	var minWire time.Duration
	for i, m := range ordered {
		p.wire[i] = cfg.Bus.FrameTime(m.Frame, cfg.Stuffing)
		p.rep.Utilization += float64(p.wire[i]) / float64(m.Event.Period)
		if i == 0 || p.wire[i] < minWire {
			minWire = p.wire[i]
		}
	}
	if wholeErrorCosts(cfg.errors()) {
		p.warmCap = maxIterations * minWire
	}
	return p, nil
}

// byPriority orders messages by arbitration priority, highest first.
func byPriority(a, b Message) int {
	if a.Frame.ID.HigherPriorityThan(b.Frame.ID, a.Frame.Format, b.Frame.Format) {
		return -1
	}
	if b.Frame.ID.HigherPriorityThan(a.Frame.ID, b.Frame.Format, a.Frame.Format) {
		return 1
	}
	return 0
}

// wholeErrorCosts reports whether the error model charges overhead in
// whole error costs (ErrorFrame + CMax, never less than a wire time) and
// grows with CMax: true for the models package errormodel defines,
// false for any other implementation, whose analyses then run cold.
func wholeErrorCosts(m errormodel.Model) bool {
	switch e := m.(type) {
	case errormodel.None, errormodel.Sporadic, errormodel.Burst:
		return true
	case errormodel.Composite:
		for _, c := range e {
			if !wholeErrorCosts(c) {
				return false
			}
		}
		return true
	}
	return false
}

// etaMemo caches EtaPlus evaluations across the fixpoint loops, which
// re-evaluate eta_k+ for every higher-priority stream at every iteration
// of every instance of the busy period. eta_k+ is a step function of the
// window, so instead of memoizing point values the memo stores, per
// stream, the current step: its value and the half-open window (lo, hi]
// on which it holds. Fixpoint iterates move in small increments and
// usually stay on the same step, so a hit costs two comparisons where
// EtaPlus costs two 64-bit divisions. eta_k+ depends only on stream k's
// model, never on which message is under analysis, so one memo serves
// every analyzeOne of a report. Memos are not goroutine-safe; each
// worker owns one.
type etaMemo struct {
	models  []eventmodel.Model // fallback for saturating queries
	streams []etaStream
}

// etaStream is the per-stream cache line: the model constants EtaPlus
// re-derives on every call (period, jitter, effective minimum distance)
// plus the current step and its validity window.
type etaStream struct {
	p, j, d time.Duration
	lo, hi  time.Duration // (lo, hi]; lo == hi: empty, first call misses
	eta     int64
}

// etaCacheMaxDt bounds the windows the memo derives: beyond it (or for
// near-Unbounded jitters) EtaPlus saturates internally and the window
// arithmetic would overflow, so such queries bypass the cache.
const etaCacheMaxDt = eventmodel.Unbounded / 4

func newEtaMemo(ordered []Message) *etaMemo {
	n := len(ordered)
	m := &etaMemo{
		models:  make([]eventmodel.Model, n),
		streams: make([]etaStream, n),
	}
	for i := range ordered {
		ev := ordered[i].Event
		m.models[i] = ev
		m.streams[i] = etaStream{p: ev.Period, j: ev.Jitter, d: ev.EffectiveDMin()}
	}
	return m
}

// at returns eta_k+(dt), cached by step. A hit is two comparisons; a
// miss re-derives the value together with its window from the cached
// constants, at the cost of the two divisions EtaPlus itself performs.
func (m *etaMemo) at(k int, dt time.Duration) int {
	if dt <= 0 {
		return 0
	}
	s := &m.streams[k]
	if dt > s.lo && dt <= s.hi {
		return int(s.eta)
	}
	if dt >= etaCacheMaxDt || s.j >= etaCacheMaxDt || s.p >= etaCacheMaxDt {
		return m.models[k].EtaPlus(dt)
	}
	// The step of ceil((dt+J)/P) holds on ((n-1)P-J, nP-J]; the optional
	// ceil(dt/d) cap holds on ((n'-1)d, n'd]. Their minimum is constant
	// on the intersection.
	na := (dt + s.j + s.p - 1) / s.p
	eta := na
	lo := (na-1)*s.p - s.j
	hi := na*s.p - s.j
	if s.d > 0 {
		nb := (dt + s.d - 1) / s.d
		if nb < eta {
			eta = nb
		}
		if lob := (nb - 1) * s.d; lob > lo {
			lo = lob
		}
		if hib := nb * s.d; hib < hi {
			hi = hib
		}
	}
	s.lo, s.hi, s.eta = lo, hi, int64(eta)
	return int(eta)
}

// kernel is one worker's state for the per-message analyses: the eta+
// memo and the level busy period it converged last, which seeds the
// next rank's busy-period fixpoint. Apart from this state analyzeOne is
// a pure function of the prepared inputs, so kernels fan out across
// goroutines; each worker owns one.
type kernel struct {
	*prepared
	memo    *etaMemo
	errs    errormodel.Model
	horizon time.Duration
	bitTime time.Duration
	// rank is the last rank analysed and busy its converged level busy
	// period, zero when that analysis produced none.
	rank int
	busy time.Duration
}

func newKernel(p *prepared) *kernel {
	return &kernel{
		prepared: p,
		memo:     newEtaMemo(p.ordered),
		errs:     p.rep.Config.errors(),
		horizon:  p.rep.Config.horizon(),
		bitTime:  p.rep.Config.Bus.BitTime(),
		rank:     -1,
	}
}

// analyzeOne computes the result of the message at rank i. prevBusy,
// when positive, is the converged level busy period of rank i-1 known
// to the caller (a cached result); the kernel also remembers the busy
// period of the rank it analysed last.
func (k *kernel) analyzeOne(i int, prevBusy time.Duration) Result {
	if k.rank == i-1 && k.busy > 0 {
		prevBusy = k.busy
	}
	k.rank, k.busy = i, 0

	m := k.ordered[i]
	cfg := k.rep.Config
	res := Result{
		Message:  m,
		Priority: i,
		C:        k.wire[i],
		BCRT:     cfg.Bus.FrameTime(m.Frame, can.StuffingNominal),
		Deadline: cfg.DeadlineModel.Deadline(m),
	}
	// Blocking: the longest lower-priority frame that can have just won
	// arbitration when m is queued.
	for j := i + 1; j < len(k.ordered); j++ {
		if k.wire[j] > res.Blocking {
			res.Blocking = k.wire[j]
		}
	}
	// Error context: any frame at this priority level or above may be the
	// one that needs retransmission.
	ectx := errormodel.Context{ErrorFrame: cfg.Bus.ErrorOverheadTime()}
	for j := 0; j <= i; j++ {
		if k.wire[j] > ectx.CMax {
			ectx.CMax = k.wire[j]
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

	// Queueing delay of instance q: the fixpoint of
	// w = B + q*C_m + E(w + C_m) + sum_{k < i} eta_k+(w + tau_bit) * C_k.
	queue := func(q int, warm time.Duration) (time.Duration, bool) {
		base := res.Blocking + time.Duration(q)*res.C
		return k.resume(base, warm, fixpoint{base: base, errOff: res.C, etaOff: k.bitTime, n: i, ectx: ectx})
	}

	if cfg.ClassicSingleInstance {
		res.Instances = 1
		res.BusyPeriod = res.Blocking + res.C
		w, ok := queue(0, 0)
		if !ok {
			return markUnschedulable()
		}
		res.WCRT = m.Event.Jitter + w + res.C
		res.Schedulable = res.WCRT <= res.Deadline
		return res
	}

	// Level-i busy period: fixpoint of
	// L = B + E(L) + sum_{k<=i} eta_k+(L) * C_k.
	// Rank i-1's busy period, when converged, lies at or below it.
	L, ok := k.resume(res.Blocking+res.C, prevBusy,
		fixpoint{base: res.Blocking, n: i + 1, ectx: ectx})
	if !ok {
		return markUnschedulable()
	}
	k.busy = L
	res.BusyPeriod = L
	res.Instances = m.Event.EtaPlus(L)
	if res.Instances < 1 {
		res.Instances = 1
	}

	// Examine every instance inside the busy period; the worst response
	// is not necessarily the first (Davis et al.). Instance q+1's delay
	// is at least instance q's plus one more own frame.
	var wcrt, w time.Duration
	for q := 0; q < res.Instances; q++ {
		var warm time.Duration
		if q > 0 {
			warm = w + res.C
		}
		if w, ok = queue(q, warm); !ok {
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

// fixpoint is one of the kernel's iterated functions,
//
//	f(x) = base + E(x + errOff) + sum_{k < n} eta_k+(x + etaOff) * C_k,
//
// the busy period (errOff = etaOff = 0, n = i+1) or an instance's
// queueing delay (errOff = C_i, etaOff = tau_bit, n = i).
type fixpoint struct {
	base, errOff, etaOff time.Duration
	n                    int
	ectx                 errormodel.Context
}

// iterate runs x <- f(x) from x until f(x) == x, returning (x, true),
// or (0, false) once an iterate exceeds the horizon or the loop reaches
// maxIterations.
func (k *kernel) iterate(x time.Duration, f fixpoint) (time.Duration, bool) {
	for iter := 0; ; iter++ {
		next := f.base + k.errs.Overhead(x+f.errOff, f.ectx)
		for j := 0; j < f.n; j++ {
			next += time.Duration(k.memo.at(j, x+f.etaOff)) * k.wire[j]
		}
		if next == x {
			return x, true
		}
		if next > k.horizon || iter >= maxIterations {
			return 0, false
		}
		x = next
	}
}

// resume returns exactly what iterate returns from the cold start, but
// starts from warm when warm lies above it. Callers pass a warm start
// at or below f's least fixpoint with f(warm) >= warm; f is monotone
// (E and eta+ are), so the warm iterates climb to the same least
// fixpoint and each stays at or above the cold iterate of the same
// step. Hence:
//
//   - a warm failure is a cold failure, and stands;
//   - a warm fixpoint x is the cold one, and the cold iteration reaches
//     it inside the horizon if x <= horizon, and inside maxIterations if
//     x - cold <= maxIterations * min wire time: every cold step that
//     is not the last adds at least one frame or one error cost.
//
// When either bound fails (or the error model is not known to pay whole
// error costs, warmCap == 0) the fixpoint is recomputed cold.
func (k *kernel) resume(cold, warm time.Duration, f fixpoint) (time.Duration, bool) {
	if warm > cold && k.warmCap > 0 {
		x, ok := k.iterate(warm, f)
		if !ok {
			return 0, false
		}
		if warmExact(x, cold, k.horizon, k.warmCap) {
			return x, true
		}
	}
	return k.iterate(cold, f)
}

// warmExact is resume's guard: a warm fixpoint x stands for the cold
// iteration from cold when that iteration provably reaches it without
// crossing the horizon or the iteration cap.
func warmExact(x, cold, horizon, warmCap time.Duration) bool {
	return x <= horizon && x-cold <= warmCap
}
