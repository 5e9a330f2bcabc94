package core

import (
	"fmt"

	"repro/internal/can"
	"repro/internal/eventmodel"
	"repro/internal/gateway"
	"repro/internal/osek"
	"repro/internal/rta"
	"repro/internal/tdma"
)

// The wiring accessors export a read-only snapshot of the system model,
// so that one System definition can drive both the compositional
// analysis (Analyze) and the holistic network simulation
// (internal/netsim) — the cross-validation the paper's network-level
// claim rests on.

// BusInfo is the wiring snapshot of one CAN bus.
type BusInfo struct {
	Name     string
	Config   rta.Config
	Messages []rta.Message
}

// ECUInfo is the wiring snapshot of one ECU.
type ECUInfo struct {
	Name   string
	Config osek.Config
	Tasks  []osek.Task
}

// TDMAInfo is the wiring snapshot of one time-triggered bus.
type TDMAInfo struct {
	Name     string
	Schedule tdma.Schedule
	Bus      can.Bus
	Stuffing can.Stuffing
	Messages []tdma.Message
}

// GatewayInfo is the wiring snapshot of one gateway.
type GatewayInfo struct {
	Name   string
	Config gateway.Config
	Flows  []string
}

// Buses returns the registered CAN buses in registration order.
func (s *System) Buses() []BusInfo {
	out := make([]BusInfo, 0, len(s.busNames))
	for _, name := range s.busNames {
		b := s.buses[name]
		out = append(out, BusInfo{
			Name:     name,
			Config:   b.cfg,
			Messages: append([]rta.Message(nil), b.msgs...),
		})
	}
	return out
}

// ECUs returns the registered ECUs in registration order.
func (s *System) ECUs() []ECUInfo {
	out := make([]ECUInfo, 0, len(s.ecuNames))
	for _, name := range s.ecuNames {
		e := s.ecus[name]
		out = append(out, ECUInfo{
			Name:   name,
			Config: e.cfg,
			Tasks:  append([]osek.Task(nil), e.tasks...),
		})
	}
	return out
}

// TDMABuses returns the registered time-triggered buses in registration
// order.
func (s *System) TDMABuses() []TDMAInfo {
	out := make([]TDMAInfo, 0, len(s.tdmaNames))
	for _, name := range s.tdmaNames {
		t := s.tdmas[name]
		out = append(out, TDMAInfo{
			Name:     name,
			Schedule: t.sched,
			Bus:      t.bus,
			Stuffing: t.stuffing,
			Messages: append([]tdma.Message(nil), t.msgs...),
		})
	}
	return out
}

// Gateways returns the registered gateways in registration order.
func (s *System) Gateways() []GatewayInfo {
	out := make([]GatewayInfo, 0, len(s.gwNames))
	for _, name := range s.gwNames {
		g := s.gws[name]
		info := GatewayInfo{Name: name, Config: g.cfg}
		for _, fl := range g.flows {
			info.Flows = append(info.Flows, fl.Name)
		}
		out = append(out, info)
	}
	return out
}

// Load overwrites, in place, the inputs of registered resources with
// snapshots shaped like those Buses, ECUs, TDMABuses and Gateways
// return: configurations, bus and ECU elements, TDMA schedules and
// messages. Every gateway flow's arrival returns to its placeholder, the
// service period of the loaded configuration. As in the Add methods,
// the configurations' name fields are set to the resource name; gateway
// flow lists are ignored, and links and paths stay. Elements are copied
// into the System's own storage, so a caller that edits its snapshots
// between runs can Analyze one System again and again without
// rebuilding it.
func (s *System) Load(buses []BusInfo, ecus []ECUInfo, tdmas []TDMAInfo, gws []GatewayInfo) error {
	for _, in := range buses {
		b := s.buses[in.Name]
		if b == nil {
			return fmt.Errorf("core: unknown bus %q", in.Name)
		}
		b.cfg = in.Config
		b.cfg.Bus.Name = in.Name
		b.msgs = append(b.msgs[:0], in.Messages...)
	}
	for _, in := range ecus {
		e := s.ecus[in.Name]
		if e == nil {
			return fmt.Errorf("core: unknown ECU %q", in.Name)
		}
		e.cfg = in.Config
		e.tasks = append(e.tasks[:0], in.Tasks...)
	}
	for _, in := range tdmas {
		t := s.tdmas[in.Name]
		if t == nil {
			return fmt.Errorf("core: unknown TDMA bus %q", in.Name)
		}
		t.sched, t.bus, t.stuffing = in.Schedule, in.Bus, in.Stuffing
		t.bus.Name = in.Name
		t.msgs = append(t.msgs[:0], in.Messages...)
	}
	for _, in := range gws {
		g := s.gws[in.Name]
		if g == nil {
			return fmt.Errorf("core: unknown gateway %q", in.Name)
		}
		g.cfg = in.Config
		g.cfg.Name = in.Name
		for i := range g.flows {
			g.flows[i].Arrival = eventmodel.Periodic(g.cfg.Service.Period)
		}
	}
	return nil
}

// Links returns the registered event-model propagation links.
func (s *System) Links() []Link {
	return append([]Link(nil), s.links...)
}

// PathList returns the registered end-to-end paths.
func (s *System) PathList() []Path {
	return append([]Path(nil), s.paths...)
}

// IsBus reports whether the named resource is a CAN bus.
func (s *System) IsBus(name string) bool { return s.buses[name] != nil }

// IsTDMA reports whether the named resource is a time-triggered bus.
func (s *System) IsTDMA(name string) bool { return s.tdmas[name] != nil }

// IsGateway reports whether the named resource is a gateway.
func (s *System) IsGateway(name string) bool { return s.gws[name] != nil }
