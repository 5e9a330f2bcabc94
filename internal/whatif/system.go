package whatif

import (
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/can"
	"repro/internal/core"
	"repro/internal/eventmodel"
	"repro/internal/gateway"
	"repro/internal/osek"
	"repro/internal/rta"
	"repro/internal/tdma"
)

// SystemSession is an incremental what-if session over a multi-resource
// core.System: it snapshots the wiring (resources, propagation links,
// paths) through the core accessors, accepts SystemChanges, and re-runs
// the compositional fixpoint with per-resource memoization — a resource
// is re-analysed only in rounds where its input interface (activation
// models plus configuration) actually changed.
//
// Analyze is bit-identical to core.Analyze on a freshly built System
// holding the session's current state (see System). Reports inside the
// returned Analysis are shared with the memo store — read-only.
type SystemSession struct {
	store   cache.Store
	workers int

	buses []*sysBus
	ecus  []*sysECU
	tdmas []*sysTDMA
	gws   []*sysGW
	kinds map[string]resKind
	links []core.Link
	paths []core.Path

	base  snapshot
	stats Stats
}

type resKind int

const (
	kindBus resKind = iota
	kindECU
	kindTDMA
	kindGW
)

type sysBus struct {
	name string
	cfg  rta.Config
	msgs []rta.Message // pristine activation models + edits
	work []rta.Message // scratch copy the fixpoint propagates into
}

type sysECU struct {
	name  string
	cfg   osek.Config
	tasks []osek.Task
	work  []osek.Task
}

type sysTDMA struct {
	name     string
	sched    tdma.Schedule
	bus      can.Bus
	stuffing can.Stuffing
	msgs     []tdma.Message
	work     []tdma.Message
}

type sysGW struct {
	name  string
	cfg   gateway.Config
	flows []string
	work  []gateway.Flow
}

// snapshot holds the deep copy Reset restores.
type snapshot struct {
	buses []sysBus
	ecus  []sysECU
	tdmas []sysTDMA
	gws   []sysGW
}

// NewSystemSession snapshots sys. The snapshot captures the system's
// current element models; construct the session from a freshly built
// System (core.Analyze propagates models in place, so an already
// analysed System would contribute converged models as the base).
func NewSystemSession(sys *core.System, opts Options) *SystemSession {
	store := opts.Store
	if store == nil {
		store = cache.NewLRU(0)
	}
	s := &SystemSession{
		store:   store,
		workers: opts.Workers,
		kinds:   map[string]resKind{},
		links:   sys.Links(),
		paths:   sys.PathList(),
	}
	for _, b := range sys.Buses() {
		s.buses = append(s.buses, &sysBus{name: b.Name, cfg: b.Config, msgs: b.Messages})
		s.kinds[b.Name] = kindBus
	}
	for _, e := range sys.ECUs() {
		s.ecus = append(s.ecus, &sysECU{name: e.Name, cfg: e.Config, tasks: e.Tasks})
		s.kinds[e.Name] = kindECU
	}
	for _, t := range sys.TDMABuses() {
		s.tdmas = append(s.tdmas, &sysTDMA{
			name: t.Name, sched: t.Schedule, bus: t.Bus, stuffing: t.Stuffing, msgs: t.Messages,
		})
		s.kinds[t.Name] = kindTDMA
	}
	for _, g := range sys.Gateways() {
		s.gws = append(s.gws, &sysGW{name: g.Name, cfg: g.Config, flows: g.Flows})
		s.kinds[g.Name] = kindGW
	}
	s.base = s.snapshot()
	return s
}

func (s *SystemSession) snapshot() snapshot {
	var snap snapshot
	for _, b := range s.buses {
		snap.buses = append(snap.buses, sysBus{name: b.name, cfg: b.cfg,
			msgs: append([]rta.Message(nil), b.msgs...)})
	}
	for _, e := range s.ecus {
		snap.ecus = append(snap.ecus, sysECU{name: e.name, cfg: e.cfg,
			tasks: append([]osek.Task(nil), e.tasks...)})
	}
	for _, t := range s.tdmas {
		snap.tdmas = append(snap.tdmas, sysTDMA{name: t.name, sched: t.sched, bus: t.bus,
			stuffing: t.stuffing, msgs: append([]tdma.Message(nil), t.msgs...)})
	}
	for _, g := range s.gws {
		snap.gws = append(snap.gws, sysGW{name: g.name, cfg: g.cfg,
			flows: append([]string(nil), g.flows...)})
	}
	return snap
}

// Reset restores the session to the state it was constructed with.
func (s *SystemSession) Reset() {
	for i, b := range s.base.buses {
		s.buses[i].cfg = b.cfg
		s.buses[i].msgs = append([]rta.Message(nil), b.msgs...)
	}
	for i, e := range s.base.ecus {
		s.ecus[i].cfg = e.cfg
		s.ecus[i].tasks = append([]osek.Task(nil), e.tasks...)
	}
	for i, t := range s.base.tdmas {
		s.tdmas[i].sched = t.sched
		s.tdmas[i].bus = t.bus
		s.tdmas[i].stuffing = t.stuffing
		s.tdmas[i].msgs = append([]tdma.Message(nil), t.msgs...)
	}
	for i, g := range s.base.gws {
		s.gws[i].cfg = g.cfg
		s.gws[i].flows = append([]string(nil), g.flows...)
	}
}

// Apply applies system changes in order. On error the session state is
// the result of the changes that succeeded before it.
func (s *SystemSession) Apply(changes ...SystemChange) error {
	for _, c := range changes {
		if err := c.applySystem(s); err != nil {
			return err
		}
	}
	return nil
}

// Stats returns the session's hit/miss counters plus a snapshot of the
// backing store.
func (s *SystemSession) Stats() Stats {
	st := s.stats
	st.Store = s.store.Stats()
	return st
}

// System rebuilds a fresh core.System holding the session's current
// (edited) state — the from-scratch counterpart of the next Analyze,
// and the handoff point to the network simulator.
func (s *SystemSession) System() (*core.System, error) {
	sys := core.NewSystem()
	for _, b := range s.buses {
		if err := sys.AddBus(b.name, b.cfg, b.msgs); err != nil {
			return nil, err
		}
	}
	for _, e := range s.ecus {
		if err := sys.AddECU(e.name, e.cfg, e.tasks); err != nil {
			return nil, err
		}
	}
	for _, t := range s.tdmas {
		if err := sys.AddTDMABus(t.name, t.sched, t.bus, t.stuffing, t.msgs); err != nil {
			return nil, err
		}
	}
	for _, g := range s.gws {
		if err := sys.AddGateway(g.name, g.cfg, g.flows); err != nil {
			return nil, err
		}
	}
	for _, l := range s.links {
		if err := sys.Connect(l.From, l.To); err != nil {
			return nil, err
		}
	}
	for _, p := range s.paths {
		if err := sys.AddPath(p.Name, p.Elements...); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// Analyze runs the compositional fixpoint of core.Analyze over the
// session's current state, fetching per-resource reports from the store
// whenever a resource's input interface digest is unchanged. Every run
// starts from the pristine (edited) activation models, so the result is
// independent of previous runs.
func (s *SystemSession) Analyze(maxIterations int) (*core.Analysis, error) {
	if maxIterations <= 0 {
		maxIterations = core.DefaultMaxIterations
	}
	if len(s.buses)+len(s.ecus)+len(s.tdmas)+len(s.gws) == 0 {
		return nil, fmt.Errorf("whatif: empty system")
	}
	// Scratch copies: propagation must not disturb the pristine models.
	for _, b := range s.buses {
		b.work = append(b.work[:0], b.msgs...)
	}
	for _, e := range s.ecus {
		e.work = append(e.work[:0], e.tasks...)
	}
	for _, t := range s.tdmas {
		t.work = append(t.work[:0], t.msgs...)
	}
	for _, g := range s.gws {
		g.work = g.work[:0]
		for _, fl := range g.flows {
			// The placeholder arrival core.AddGateway installs; real
			// arrivals are propagated from the source elements.
			g.work = append(g.work, gateway.Flow{
				Name: fl, Arrival: eventmodel.Periodic(g.cfg.Service.Period),
			})
		}
	}

	a := &core.Analysis{
		BusReports:     map[string]*rta.Report{},
		ECUReports:     map[string]*osek.Report{},
		TDMAReports:    map[string]*tdma.Report{},
		GatewayReports: map[string]*gateway.Report{},
	}
	for iter := 1; iter <= maxIterations; iter++ {
		a.Iterations = iter
		if err := s.analyzeLocal(a); err != nil {
			return nil, err
		}
		changed, err := s.propagate(a)
		if err != nil {
			return nil, err
		}
		if !changed {
			a.Converged = true
			break
		}
	}
	if err := s.analyzeLocal(a); err != nil {
		return nil, err
	}
	s.pathLatencies(a)
	return a, nil
}

// analyzeLocal refreshes all per-resource reports, through the memo.
func (s *SystemSession) analyzeLocal(a *core.Analysis) error {
	for _, b := range s.buses {
		key := reportKey(tagBusReport, b.cfg, b.work)
		// Whole-bus snapshots are in-process only, mirroring
		// BusSession.Analyze: see the comment there.
		if v, ok := cache.GetPrimary(s.store, key); ok {
			if rep, ok := v.(*rta.Report); ok {
				s.stats.ReportHits++
				a.BusReports[b.name] = rep
				continue
			}
		}
		cc := countingCache{store: s.store, stats: &s.stats}
		rep, err := rta.AnalyzeCached(b.work, b.cfg, &cc, s.workers)
		if err != nil {
			return fmt.Errorf("whatif: bus %s: %w", b.name, err)
		}
		cache.PutPrimary(s.store, key, rep)
		a.BusReports[b.name] = rep
	}
	// Whole-resource reports below do consult the shared second level —
	// they are the unit of recomputation, so a remote hit replaces the
	// analysis one-for-one. As in countingCache, only a primary hit is
	// counted as a ReportHit; an L2 hit is charged like the
	// recomputation it replaced.
	for _, e := range s.ecus {
		key := ecuKey(e.cfg, e.work)
		if v, primary, ok := cache.GetLeveled(s.store, key); ok {
			if rep, ok := v.(*osek.Report); ok {
				if primary {
					s.stats.ReportHits++
				} else {
					s.stats.Misses++
				}
				a.ECUReports[e.name] = rep
				continue
			}
		}
		rep, err := osek.Analyze(e.work, e.cfg)
		if err != nil {
			return fmt.Errorf("whatif: ECU %s: %w", e.name, err)
		}
		s.stats.Misses++
		s.store.Put(key, rep)
		a.ECUReports[e.name] = rep
	}
	for _, t := range s.tdmas {
		key := tdmaKey(t)
		if v, primary, ok := cache.GetLeveled(s.store, key); ok {
			if rep, ok := v.(*tdma.Report); ok {
				if primary {
					s.stats.ReportHits++
				} else {
					s.stats.Misses++
				}
				a.TDMAReports[t.name] = rep
				continue
			}
		}
		rep, err := tdma.Analyze(t.work, t.sched, t.bus, t.stuffing)
		if err != nil {
			return fmt.Errorf("whatif: TDMA bus %s: %w", t.name, err)
		}
		s.stats.Misses++
		s.store.Put(key, rep)
		a.TDMAReports[t.name] = rep
	}
	for _, g := range s.gws {
		key := gatewayKey(g.cfg, g.work)
		if v, primary, ok := cache.GetLeveled(s.store, key); ok {
			if rep, ok := v.(*gateway.Report); ok {
				if primary {
					s.stats.ReportHits++
				} else {
					s.stats.Misses++
				}
				a.GatewayReports[g.name] = rep
				continue
			}
		}
		rep, err := gateway.Analyze(g.work, g.cfg)
		if err != nil {
			return fmt.Errorf("whatif: gateway %s: %w", g.name, err)
		}
		s.stats.Misses++
		s.store.Put(key, rep)
		a.GatewayReports[g.name] = rep
	}
	return nil
}

// findModel returns a pointer into the scratch state for a link target.
func (s *SystemSession) findModel(ref core.ElementRef) (*eventmodel.Model, error) {
	switch s.kinds[ref.Resource] {
	case kindBus:
		for _, b := range s.buses {
			if b.name != ref.Resource {
				continue
			}
			for i := range b.work {
				if b.work[i].Name == ref.Element {
					return &b.work[i].Event, nil
				}
			}
		}
	case kindECU:
		for _, e := range s.ecus {
			if e.name != ref.Resource {
				continue
			}
			for i := range e.work {
				if e.work[i].Name == ref.Element {
					return &e.work[i].Event, nil
				}
			}
		}
	case kindTDMA:
		for _, t := range s.tdmas {
			if t.name != ref.Resource {
				continue
			}
			for i := range t.work {
				if t.work[i].Name == ref.Element {
					return &t.work[i].Event, nil
				}
			}
		}
	case kindGW:
		for _, g := range s.gws {
			if g.name != ref.Resource {
				continue
			}
			for i := range g.work {
				if g.work[i].Name == ref.Element {
					return &g.work[i].Arrival, nil
				}
			}
		}
	}
	return nil, fmt.Errorf("whatif: unknown element %s", ref)
}

// outputModel mirrors core's: the derived output event model of an
// element under the current reports.
func (s *SystemSession) outputModel(a *core.Analysis, ref core.ElementRef) (eventmodel.Model, error) {
	switch s.kinds[ref.Resource] {
	case kindBus:
		if rep := a.BusReports[ref.Resource]; rep != nil {
			if res := rep.ByName(ref.Element); res != nil {
				return res.OutputModel(), nil
			}
		}
	case kindTDMA:
		if rep := a.TDMAReports[ref.Resource]; rep != nil {
			if res := rep.ByName(ref.Element); res != nil {
				return res.OutputModel(), nil
			}
		}
	case kindGW:
		if rep := a.GatewayReports[ref.Resource]; rep != nil {
			return rep.OutFlow(ref.Element)
		}
	case kindECU:
		if rep := a.ECUReports[ref.Resource]; rep != nil {
			if res := rep.ByName(ref.Element); res != nil {
				return res.OutputModel(), nil
			}
		}
	}
	return eventmodel.Model{}, fmt.Errorf("whatif: no analysis for %s", ref)
}

// propagate pushes output models along all links; reports whether any
// activation model changed.
func (s *SystemSession) propagate(a *core.Analysis) (bool, error) {
	changed := false
	for _, l := range s.links {
		out, err := s.outputModel(a, l.From)
		if err != nil {
			return false, err
		}
		dst, err := s.findModel(l.To)
		if err != nil {
			return false, err
		}
		if *dst != out {
			*dst = out
			changed = true
		}
	}
	return changed, nil
}

// pathLatencies fills in end-to-end bounds exactly as core does.
func (s *SystemSession) pathLatencies(a *core.Analysis) {
	for _, p := range s.paths {
		pr := core.PathResult{Name: p.Name}
		total := time.Duration(0)
		bounded := true
		for _, ref := range p.Elements {
			delay, ok := s.hopDelay(a, ref)
			pr.Hops = append(pr.Hops, core.HopLatency{Ref: ref, Delay: delay})
			if !ok {
				bounded = false
				continue
			}
			total += delay
		}
		if bounded {
			pr.Latency = total
		} else {
			pr.Latency = core.Unbounded
		}
		a.Paths = append(a.Paths, pr)
	}
}

// hopDelay returns an element's from-arrival worst-case response,
// mirroring core's hop accounting.
func (s *SystemSession) hopDelay(a *core.Analysis, ref core.ElementRef) (time.Duration, bool) {
	switch s.kinds[ref.Resource] {
	case kindBus:
		res := a.BusReports[ref.Resource].ByName(ref.Element)
		if res == nil || res.WCRT == rta.Unschedulable {
			return core.Unbounded, false
		}
		return res.WCRT - res.Message.Event.Jitter, true
	case kindTDMA:
		res := a.TDMAReports[ref.Resource].ByName(ref.Element)
		if res == nil || res.WCRT == tdma.Unschedulable {
			return core.Unbounded, false
		}
		return res.WCRT, true
	case kindGW:
		rep := a.GatewayReports[ref.Resource]
		if rep == nil {
			return core.Unbounded, false
		}
		for _, fr := range rep.Flows {
			if fr.Flow.Name != ref.Element {
				continue
			}
			if fr.Delay == gateway.Unbounded {
				return core.Unbounded, false
			}
			return fr.Delay, true
		}
		return core.Unbounded, false
	default:
		res := a.ECUReports[ref.Resource].ByName(ref.Element)
		if res == nil || res.WCRT == osek.Unschedulable {
			return core.Unbounded, false
		}
		return res.WCRT - res.Task.Event.Jitter, true
	}
}
