package whatif

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/can"
	"repro/internal/contenthash"
	"repro/internal/gateway"
	"repro/internal/osek"
	"repro/internal/rta"
	"repro/internal/tdma"
)

// memo is the analysis memo of one session and the one accountant of
// its cache traffic. A cache.Tiered store is read as its two levels: l1,
// the in-process level the session's counters are pinned to, and l2,
// the shared level behind it (nil for a flat store). *memo is the
// rta.ResultCache of per-message results and the core.Analyzers
// through which a SystemSession runs core's fixpoint. Analyses call it
// serially, so plain counters suffice.
type memo struct {
	store   cache.Store
	l1, l2  cache.Store
	workers int
	stats   Stats
}

func newMemo(opts Options) memo {
	store := opts.Store
	if store == nil {
		store = cache.NewLRU(0)
	}
	m := memo{store: store, l1: store, workers: opts.Workers}
	if t, ok := store.(*cache.Tiered); ok {
		m.l1, m.l2 = t.L1(), t.L2()
	}
	return m
}

// snapshot returns the counters plus a snapshot of the backing store.
func (m *memo) snapshot() Stats {
	st := m.stats
	st.Store = m.store.Stats()
	return st
}

// get resolves key against L1, then L2. An L2 answer is promoted into
// L1, which is exactly where a cold run's Put would have placed it;
// l1 reports whether L1 answered.
func (m *memo) get(key contenthash.Digest) (v any, l1, ok bool) {
	if v, ok := m.l1.Get(key); ok || m.l2 == nil {
		return v, ok, ok
	}
	if v, ok = m.l2.Get(key); ok {
		m.l1.Put(key, v)
	}
	return v, false, ok
}

// Get counts a hit only when the in-process level answered. A shared
// second-level hit still returns the value (the caller skips the
// recomputation) but is charged as a miss, keeping session counters
// independent of shared state.
func (m *memo) Get(key contenthash.Digest) (any, bool) {
	v, l1, ok := m.get(key)
	if l1 {
		m.stats.Hits++
	} else {
		m.l1Miss(ok)
	}
	return v, ok
}

// l1Miss charges a lookup L1 could not answer, noting whether the
// shared level did.
func (m *memo) l1Miss(shared bool) {
	m.stats.Misses++
	if shared {
		m.stats.SharedHits++
	}
}

// Put stores a per-message result (in every level).
func (m *memo) Put(key contenthash.Digest, v any) { m.store.Put(key, v) }

// bus is the whole-bus memo both session kinds share. A bus already in
// the store returns its report outright; otherwise only messages whose
// input digests are new are re-analysed (rta.AnalyzeCached). Whole-bus
// reports resolve against the in-process level only: a second-level
// short-circuit here would skip the per-message counter activity and
// make the session statistics (and the L1 population) depend on
// shared-cache state.
func (m *memo) bus(msgs []rta.Message, cfg rta.Config) (*rta.Report, error) {
	key := reportKey(tagBusReport, cfg, msgs)
	if v, ok := m.l1.Get(key); ok {
		if rep, ok := v.(*rta.Report); ok {
			m.stats.ReportHits++
			return rep, nil
		}
	}
	rep, err := rta.AnalyzeCached(msgs, cfg, m, m.workers)
	if err != nil {
		return nil, err
	}
	m.l1.Put(key, rep)
	return rep, nil
}

// The other whole-resource reports do consult the shared second level:
// they are the unit of recomputation, so an L2 hit replaces the
// analysis one-for-one. As in Get, only an L1 hit is counted as a
// ReportHit; an L2 hit is charged like the recomputation it replaced.

func (m *memo) Bus(name string, msgs []rta.Message, cfg rta.Config) (*rta.Report, error) {
	rep, err := m.bus(msgs, cfg)
	if err != nil {
		return nil, fmt.Errorf("whatif: bus %s: %w", name, err)
	}
	return rep, nil
}

func (m *memo) ECU(name string, tasks []osek.Task, cfg osek.Config) (*osek.Report, error) {
	key := ecuKey(cfg, tasks)
	if rep, ok := lookup[*osek.Report](m, key); ok {
		return rep, nil
	}
	rep, err := osek.Analyze(tasks, cfg)
	if err != nil {
		return nil, fmt.Errorf("whatif: ECU %s: %w", name, err)
	}
	m.computed(key, rep)
	return rep, nil
}

func (m *memo) TDMA(name string, msgs []tdma.Message, sched tdma.Schedule, bus can.Bus, stuffing can.Stuffing) (*tdma.Report, error) {
	key := tdmaKey(msgs, sched, bus, stuffing)
	if rep, ok := lookup[*tdma.Report](m, key); ok {
		return rep, nil
	}
	rep, err := tdma.Analyze(msgs, sched, bus, stuffing)
	if err != nil {
		return nil, fmt.Errorf("whatif: TDMA bus %s: %w", name, err)
	}
	m.computed(key, rep)
	return rep, nil
}

func (m *memo) Gateway(name string, flows []gateway.Flow, cfg gateway.Config) (*gateway.Report, error) {
	key := gatewayKey(cfg, flows)
	if rep, ok := lookup[*gateway.Report](m, key); ok {
		return rep, nil
	}
	rep, err := gateway.Analyze(flows, cfg)
	if err != nil {
		return nil, fmt.Errorf("whatif: gateway %s: %w", name, err)
	}
	m.computed(key, rep)
	return rep, nil
}

// lookup returns a memoized whole-resource report of type R.
func lookup[R any](m *memo, key contenthash.Digest) (R, bool) {
	v, l1, ok := m.get(key)
	rep, isR := v.(R)
	if !ok || !isR {
		return rep, false
	}
	if l1 {
		m.stats.ReportHits++
	} else {
		m.l1Miss(true)
	}
	return rep, true
}

// computed charges and stores a freshly analysed whole-resource report.
func (m *memo) computed(key contenthash.Digest, rep any) {
	m.stats.Misses++
	m.store.Put(key, rep)
}

// reportKey digests a whole resource: configuration plus all messages
// in the given order.
func reportKey(tag uint64, cfg rta.Config, msgs []rta.Message) contenthash.Digest {
	h := contenthash.New(tag)
	rta.HashConfig(&h, cfg)
	rta.HashMessages(&h, msgs)
	return h.Sum()
}
