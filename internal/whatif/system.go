package whatif

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/osek"
	"repro/internal/rta"
	"repro/internal/tdma"
)

// SystemSession is an incremental what-if session over a multi-resource
// core.System: it snapshots the wiring (resources, propagation links,
// paths) through the core accessors, accepts SystemChanges, and re-runs
// core's compositional fixpoint through a per-resource memo — a resource
// is re-analysed only in rounds where its input interface (activation
// models plus configuration) actually changed.
//
// Analyze is bit-identical to core.Analyze on a freshly built System
// holding the session's current state (see System). Reports inside the
// returned Analysis are shared with the memo store — read-only.
type SystemSession struct {
	memo memo
	state
	links []core.Link
	paths []core.Path
	base  state
	// work is the scratch System the fixpoint propagates into: built by
	// the first Analyze, reloaded from the state by every later one.
	work *core.System
}

// state holds the pristine (edited) inputs of every resource, in the
// shape of the core wiring snapshots.
type state struct {
	buses []core.BusInfo
	ecus  []core.ECUInfo
	tdmas []core.TDMAInfo
	gws   []core.GatewayInfo
}

// clone deep-copies the element slices edits change in place; TDMA
// schedules and gateway flow lists are only ever replaced, so they are
// shared.
func (st state) clone() state {
	out := state{
		buses: append([]core.BusInfo(nil), st.buses...),
		ecus:  append([]core.ECUInfo(nil), st.ecus...),
		tdmas: append([]core.TDMAInfo(nil), st.tdmas...),
		gws:   append([]core.GatewayInfo(nil), st.gws...),
	}
	for i := range out.buses {
		out.buses[i].Messages = append([]rta.Message(nil), out.buses[i].Messages...)
	}
	for i := range out.ecus {
		out.ecus[i].Tasks = append([]osek.Task(nil), out.ecus[i].Tasks...)
	}
	for i := range out.tdmas {
		out.tdmas[i].Messages = append([]tdma.Message(nil), out.tdmas[i].Messages...)
	}
	return out
}

// NewSystemSession snapshots sys. The snapshot captures the system's
// current element models; construct the session from a freshly built
// System (core.Analyze propagates models in place, so an already
// analysed System would contribute converged models as the base).
func NewSystemSession(sys *core.System, opts Options) *SystemSession {
	s := &SystemSession{
		memo:  newMemo(opts),
		state: state{buses: sys.Buses(), ecus: sys.ECUs(), tdmas: sys.TDMABuses(), gws: sys.Gateways()},
		links: sys.Links(),
		paths: sys.PathList(),
	}
	s.base = s.state.clone()
	return s
}

// Reset restores the session to the state it was constructed with.
func (s *SystemSession) Reset() {
	s.state = s.base.clone()
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
func (s *SystemSession) Stats() Stats { return s.memo.snapshot() }

// System rebuilds a fresh core.System holding the session's current
// (edited) state — the from-scratch counterpart of the next Analyze,
// and the handoff point to the network simulator.
func (s *SystemSession) System() (*core.System, error) {
	sys := core.NewSystem()
	for _, b := range s.buses {
		if err := sys.AddBus(b.Name, b.Config, b.Messages); err != nil {
			return nil, err
		}
	}
	for _, e := range s.ecus {
		if err := sys.AddECU(e.Name, e.Config, e.Tasks); err != nil {
			return nil, err
		}
	}
	for _, t := range s.tdmas {
		if err := sys.AddTDMABus(t.Name, t.Schedule, t.Bus, t.Stuffing, t.Messages); err != nil {
			return nil, err
		}
	}
	for _, g := range s.gws {
		if err := sys.AddGateway(g.Name, g.Config, g.Flows); err != nil {
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

// Analyze runs core's compositional fixpoint (core.System.AnalyzeWith)
// over the session's current state, fetching per-resource reports from
// the store whenever a resource's input interface digest is unchanged.
// Every run reloads the pristine (edited) activation models into the
// scratch System first, so the result is independent of previous runs.
func (s *SystemSession) Analyze(maxIterations int) (*core.Analysis, error) {
	if len(s.buses)+len(s.ecus)+len(s.tdmas)+len(s.gws) == 0 {
		return nil, fmt.Errorf("whatif: empty system")
	}
	if s.work == nil {
		work, err := s.System()
		if err != nil {
			return nil, err
		}
		s.work = work
	} else if err := s.work.Load(s.buses, s.ecus, s.tdmas, s.gws); err != nil {
		return nil, err
	}
	return s.work.AnalyzeWith(&s.memo, maxIterations)
}
