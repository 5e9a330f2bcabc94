package sim

import (
	"math/rand"
	"time"
)

// This file preserves the original scanning engine verbatim (modulo
// renames) as the golden reference for the bus state machine in bus.go.
// TestEngineMatchesSeedEngine and FuzzSimMatchesSeedEngine require the
// production engine to reproduce this engine's statistics bit for bit:
// the RNG draw order, the FIFO numbering and the arbitration outcomes
// are part of the engine contract, not an implementation detail.

// refInstance is a queued message instance waiting in a sender buffer.
type refInstance struct {
	queuedAt time.Duration
	attempt  int
}

// refStream is the runtime state of one message.
type refStream struct {
	spec        MessageSpec
	statsIdx    int
	nextNominal time.Duration
	nextActual  time.Duration
	pending     *refInstance
	queuePos    int
}

func (st *refStream) advance(rng *rand.Rand, horizon time.Duration) {
	if st.nextNominal >= horizon {
		st.nextActual = -1
		return
	}
	actual := st.nextNominal
	if j := st.spec.Event.Jitter; j > 0 {
		actual += time.Duration(rng.Int63n(int64(j) + 1))
	}
	st.nextActual = actual
	st.nextNominal += st.spec.Event.Period
}

func (st *refStream) release(at time.Duration, stats *Stats, fifo *int) {
	stats.Released++
	if st.pending != nil {
		stats.Lost++
	} else {
		*fifo++
		st.queuePos = *fifo
	}
	st.pending = &refInstance{queuedAt: at, attempt: 1}
}

// refRun is the seed implementation of Run: full scans over all streams
// per bus event.
func refRun(specs []MessageSpec, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := validate(specs, cfg); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	errs := sortedErrors(cfg.Errors)

	res := &Result{Duration: cfg.Duration, Stats: make([]Stats, len(specs))}
	streams := make([]*refStream, len(specs))
	for i, s := range specs {
		res.Stats[i] = Stats{Name: s.Name, MinResponse: -1}
		streams[i] = &refStream{spec: s, statsIdx: i, nextNominal: s.Offset}
		streams[i].advance(rng, cfg.Duration)
	}

	fifo := 0
	now := time.Duration(0)

	releaseDue := func(t time.Duration) {
		for _, st := range streams {
			for st.nextActual >= 0 && st.nextActual <= t {
				st.release(st.nextActual, &res.Stats[st.statsIdx], &fifo)
				st.advance(rng, cfg.Duration)
			}
		}
	}
	nextRelease := func() time.Duration {
		best := time.Duration(-1)
		for _, st := range streams {
			if st.nextActual >= 0 && (best < 0 || st.nextActual < best) {
				best = st.nextActual
			}
		}
		return best
	}
	record := func(e Event) {
		if cfg.RecordTrace && len(res.Trace) < cfg.TraceLimit {
			res.Trace = append(res.Trace, e)
		}
	}

	for now < cfg.Duration {
		releaseDue(now)
		winner := refArbitrate(streams, cfg.Controller)
		if winner == nil {
			next := nextRelease()
			if next < 0 {
				break
			}
			now = next
			continue
		}
		c := drawFrameTime(cfg.Bus, cfg.Stuffing, rng, winner.spec.Frame)
		start := now
		end := start + c

		if len(errs) > 0 && errs[0] < start {
			errs = errs[1:]
			continue
		}
		if len(errs) > 0 && errs[0] < end {
			errAt := errs[0]
			errs = errs[1:]
			busyUntil := errAt + cfg.Bus.ErrorOverheadTime()
			res.BusBusy += busyUntil - start
			res.Errors++
			record(Event{
				Kind: EventError, Time: start, Duration: busyUntil - start,
				Message: winner.spec.Name, Node: winner.spec.Node,
				Attempt: winner.pending.attempt,
			})
			winner.pending.attempt++
			res.Stats[winner.statsIdx].Retransmissions++
			now = busyUntil
			continue
		}

		res.BusBusy += c
		st := &res.Stats[winner.statsIdx]
		st.Sent++
		resp := end - winner.pending.queuedAt
		if resp > st.MaxResponse {
			st.MaxResponse = resp
		}
		if st.MinResponse < 0 || resp < st.MinResponse {
			st.MinResponse = resp
		}
		record(Event{
			Kind: EventTransmit, Time: start, Duration: c,
			Message: winner.spec.Name, Node: winner.spec.Node,
			Attempt: winner.pending.attempt,
		})
		winner.pending = nil
		now = end
	}

	for i := range res.Stats {
		if res.Stats[i].MinResponse < 0 {
			res.Stats[i].MinResponse = 0
		}
	}
	return res, nil
}

func refArbitrate(streams []*refStream, ctrl ControllerType) *refStream {
	if ctrl == BasicCAN {
		heads := map[string]*refStream{}
		for _, st := range streams {
			if st.pending == nil {
				continue
			}
			h, ok := heads[st.spec.Node]
			if !ok || st.queuePos < h.queuePos {
				heads[st.spec.Node] = st
			}
		}
		var best *refStream
		for _, st := range heads {
			if best == nil || refHigherPriority(st, best) {
				best = st
			}
		}
		return best
	}
	var best *refStream
	for _, st := range streams {
		if st.pending == nil {
			continue
		}
		if best == nil || refHigherPriority(st, best) {
			best = st
		}
	}
	return best
}

func refHigherPriority(a, b *refStream) bool {
	return a.spec.Frame.ID.HigherPriorityThan(b.spec.Frame.ID, a.spec.Frame.Format, b.spec.Frame.Format)
}
