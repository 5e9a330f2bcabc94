package core

import (
	"fmt"
	"time"

	"repro/internal/can"
	"repro/internal/eventmodel"
	"repro/internal/gateway"
	"repro/internal/osek"
	"repro/internal/rta"
	"repro/internal/tdma"
)

// ElementRef names an element (message or task) on a resource.
type ElementRef struct {
	// Resource is the bus or ECU name.
	Resource string
	// Element is the message or task name.
	Element string
}

// String renders the reference as resource/element.
func (r ElementRef) String() string {
	return r.Resource + "/" + r.Element
}

// Link propagates the output event model of From to the activation of To.
type Link struct {
	From, To ElementRef
}

// Path is a named end-to-end flow through the system.
type Path struct {
	// Name identifies the path in reports.
	Name string
	// Elements lists the traversed elements in order.
	Elements []ElementRef
}

// System is a multi-resource model under compositional analysis.
type System struct {
	busNames  []string
	buses     map[string]*busResource
	ecuNames  []string
	ecus      map[string]*ecuResource
	tdmaNames []string
	tdmas     map[string]*tdmaResource
	gwNames   []string
	gws       map[string]*gwResource
	links     []Link
	paths     []Path
}

type busResource struct {
	cfg  rta.Config
	msgs []rta.Message
}

type ecuResource struct {
	cfg   osek.Config
	tasks []osek.Task
}

type tdmaResource struct {
	sched    tdma.Schedule
	bus      can.Bus
	stuffing can.Stuffing
	msgs     []tdma.Message
}

type gwResource struct {
	cfg   gateway.Config
	flows []gateway.Flow
}

// NewSystem returns an empty system.
func NewSystem() *System {
	return &System{
		buses: map[string]*busResource{},
		ecus:  map[string]*ecuResource{},
		tdmas: map[string]*tdmaResource{},
		gws:   map[string]*gwResource{},
	}
}

// AddBus registers a CAN bus with its analysis configuration and
// messages. The configuration's Bus.Name is overwritten with name.
func (s *System) AddBus(name string, cfg rta.Config, msgs []rta.Message) error {
	if name == "" {
		return fmt.Errorf("core: bus without name")
	}
	if s.taken(name) {
		return fmt.Errorf("core: duplicate resource %q", name)
	}
	cfg.Bus.Name = name
	s.buses[name] = &busResource{cfg: cfg, msgs: append([]rta.Message(nil), msgs...)}
	s.busNames = append(s.busNames, name)
	return nil
}

// AddECU registers an ECU with its analysis configuration and tasks.
func (s *System) AddECU(name string, cfg osek.Config, tasks []osek.Task) error {
	if name == "" {
		return fmt.Errorf("core: ECU without name")
	}
	if s.taken(name) {
		return fmt.Errorf("core: duplicate resource %q", name)
	}
	s.ecus[name] = &ecuResource{cfg: cfg, tasks: append([]osek.Task(nil), tasks...)}
	s.ecuNames = append(s.ecuNames, name)
	return nil
}

// AddTDMABus registers a time-triggered bus with its static schedule.
func (s *System) AddTDMABus(name string, sched tdma.Schedule, bus can.Bus,
	stuffing can.Stuffing, msgs []tdma.Message) error {
	if name == "" {
		return fmt.Errorf("core: TDMA bus without name")
	}
	if s.taken(name) {
		return fmt.Errorf("core: duplicate resource %q", name)
	}
	bus.Name = name
	s.tdmas[name] = &tdmaResource{
		sched: sched, bus: bus, stuffing: stuffing,
		msgs: append([]tdma.Message(nil), msgs...),
	}
	s.tdmaNames = append(s.tdmaNames, name)
	return nil
}

// AddGateway registers a store-and-forward gateway between buses. Each
// flow names one message stream traversing the gateway; its arrival
// model starts as a placeholder (the service period) and is meant to be
// fed from a source message via Connect. The gateway's per-flow
// queueing delays (package gateway) contribute to path bounds, and its
// forwarded flows propagate output models onto the destination bus.
func (s *System) AddGateway(name string, cfg gateway.Config, flows []string) error {
	if name == "" {
		return fmt.Errorf("core: gateway without name")
	}
	if s.taken(name) {
		return fmt.Errorf("core: duplicate resource %q", name)
	}
	if len(flows) == 0 {
		return fmt.Errorf("core: gateway %q has no flows", name)
	}
	cfg.Name = name
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	g := &gwResource{cfg: cfg}
	seen := map[string]bool{}
	for _, fl := range flows {
		if fl == "" {
			return fmt.Errorf("core: gateway %q: flow without name", name)
		}
		if seen[fl] {
			return fmt.Errorf("core: gateway %q: duplicate flow %q", name, fl)
		}
		seen[fl] = true
		g.flows = append(g.flows, gateway.Flow{
			Name: fl, Arrival: eventmodel.Periodic(cfg.Service.Period),
		})
	}
	s.gws[name] = g
	s.gwNames = append(s.gwNames, name)
	return nil
}

// taken reports whether a resource name is in use.
func (s *System) taken(name string) bool {
	return s.buses[name] != nil || s.ecus[name] != nil ||
		s.tdmas[name] != nil || s.gws[name] != nil
}

// Connect links the output of from to the activation of to.
func (s *System) Connect(from, to ElementRef) error {
	for _, ref := range []ElementRef{from, to} {
		if _, err := s.findElement(ref); err != nil {
			return err
		}
	}
	s.links = append(s.links, Link{From: from, To: to})
	return nil
}

// AddPath registers an end-to-end flow for latency reporting.
func (s *System) AddPath(name string, elements ...ElementRef) error {
	if name == "" {
		return fmt.Errorf("core: path without name")
	}
	if len(elements) == 0 {
		return fmt.Errorf("core: path %q has no elements", name)
	}
	for _, ref := range elements {
		if _, err := s.findElement(ref); err != nil {
			return fmt.Errorf("core: path %q: %w", name, err)
		}
	}
	s.paths = append(s.paths, Path{Name: name, Elements: elements})
	return nil
}

// findElement returns a pointer to the element's event model.
func (s *System) findElement(ref ElementRef) (*eventmodel.Model, error) {
	if b, ok := s.buses[ref.Resource]; ok {
		for i := range b.msgs {
			if b.msgs[i].Name == ref.Element {
				return &b.msgs[i].Event, nil
			}
		}
		return nil, fmt.Errorf("core: bus %q has no message %q", ref.Resource, ref.Element)
	}
	if e, ok := s.ecus[ref.Resource]; ok {
		for i := range e.tasks {
			if e.tasks[i].Name == ref.Element {
				return &e.tasks[i].Event, nil
			}
		}
		return nil, fmt.Errorf("core: ECU %q has no task %q", ref.Resource, ref.Element)
	}
	if t, ok := s.tdmas[ref.Resource]; ok {
		for i := range t.msgs {
			if t.msgs[i].Name == ref.Element {
				return &t.msgs[i].Event, nil
			}
		}
		return nil, fmt.Errorf("core: TDMA bus %q has no message %q", ref.Resource, ref.Element)
	}
	if g, ok := s.gws[ref.Resource]; ok {
		for i := range g.flows {
			if g.flows[i].Name == ref.Element {
				return &g.flows[i].Arrival, nil
			}
		}
		return nil, fmt.Errorf("core: gateway %q has no flow %q", ref.Resource, ref.Element)
	}
	return nil, fmt.Errorf("core: unknown resource %q", ref.Resource)
}

// PathResult is the latency bound of one path.
type PathResult struct {
	// Name echoes the path name.
	Name string
	// Latency is the end-to-end worst-case bound, or Unbounded when any
	// element on the path is unschedulable.
	Latency time.Duration
	// Hops breaks the bound down per element (from-arrival responses).
	Hops []HopLatency
}

// HopLatency is one element's contribution to a path bound.
type HopLatency struct {
	Ref   ElementRef
	Delay time.Duration
}

// Unbounded marks diverged or unschedulable results.
const Unbounded = time.Duration(int64(eventmodel.Unbounded))

// Analysis is the outcome of a compositional run.
type Analysis struct {
	// BusReports holds the final per-bus analyses.
	BusReports map[string]*rta.Report
	// ECUReports holds the final per-ECU analyses.
	ECUReports map[string]*osek.Report
	// TDMAReports holds the final per-TDMA-bus analyses.
	TDMAReports map[string]*tdma.Report
	// GatewayReports holds the final per-gateway queueing analyses.
	GatewayReports map[string]*gateway.Report
	// Iterations counts global propagation rounds.
	Iterations int
	// Converged reports whether event models reached a fixpoint.
	Converged bool
	// Paths holds end-to-end latency bounds.
	Paths []PathResult
}

// AllSchedulable reports whether every message and task in the system
// meets its deadline.
func (a *Analysis) AllSchedulable() bool {
	for _, rep := range a.BusReports {
		if !rep.AllSchedulable() {
			return false
		}
	}
	for _, rep := range a.ECUReports {
		if !rep.AllSchedulable() {
			return false
		}
	}
	for _, rep := range a.TDMAReports {
		for _, r := range rep.Results {
			if !r.Schedulable {
				return false
			}
		}
	}
	for _, rep := range a.GatewayReports {
		if rep.Delay == gateway.Unbounded || rep.Overflow {
			return false
		}
	}
	return true
}

// DefaultMaxIterations bounds global propagation rounds.
const DefaultMaxIterations = 64

// Analyzers runs the local analysis of one resource inside the fixpoint.
// Each method receives the resource's configuration and its elements'
// current activation models and returns the report as is, so an
// implementation may answer from a memo: every report is a pure function
// of these arguments. Errors pass through the fixpoint unwrapped, so an
// implementation names the resource in its own errors.
type Analyzers interface {
	Bus(name string, msgs []rta.Message, cfg rta.Config) (*rta.Report, error)
	ECU(name string, tasks []osek.Task, cfg osek.Config) (*osek.Report, error)
	TDMA(name string, msgs []tdma.Message, sched tdma.Schedule, bus can.Bus, stuffing can.Stuffing) (*tdma.Report, error)
	Gateway(name string, flows []gateway.Flow, cfg gateway.Config) (*gateway.Report, error)
}

// direct is Analyze's Analyzers: the analyses themselves.
type direct struct{}

func (direct) Bus(name string, msgs []rta.Message, cfg rta.Config) (*rta.Report, error) {
	rep, err := rta.Analyze(msgs, cfg)
	return rep, wrapLocal("bus", name, err)
}

func (direct) ECU(name string, tasks []osek.Task, cfg osek.Config) (*osek.Report, error) {
	rep, err := osek.Analyze(tasks, cfg)
	return rep, wrapLocal("ECU", name, err)
}

func (direct) TDMA(name string, msgs []tdma.Message, sched tdma.Schedule, bus can.Bus, stuffing can.Stuffing) (*tdma.Report, error) {
	rep, err := tdma.Analyze(msgs, sched, bus, stuffing)
	return rep, wrapLocal("TDMA bus", name, err)
}

func (direct) Gateway(name string, flows []gateway.Flow, cfg gateway.Config) (*gateway.Report, error) {
	rep, err := gateway.Analyze(flows, cfg)
	return rep, wrapLocal("gateway", name, err)
}

func wrapLocal(kind, name string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("core: %s %s: %w", kind, name, err)
}

// Analyze runs the compositional fixpoint with the direct analyses:
// local analyses, propagate output models along links, repeat until
// stable.
//
// Propagation writes into this System: every link target's activation
// model (gateway flow arrivals included) is overwritten in place, so
// after Analyze the System holds the converged models. netsim.FromSystem
// on an analysed System therefore simulates the propagated models, which
// is what symtago netsim validates; build a fresh System to analyse or
// simulate the registered models again.
func (s *System) Analyze(maxIterations int) (*Analysis, error) {
	return s.AnalyzeWith(direct{}, maxIterations)
}

// AnalyzeWith runs Analyze's fixpoint, propagation into the System
// included, with the local analyses of an.
func (s *System) AnalyzeWith(an Analyzers, maxIterations int) (*Analysis, error) {
	if maxIterations <= 0 {
		maxIterations = DefaultMaxIterations
	}
	if len(s.buses)+len(s.ecus)+len(s.tdmas)+len(s.gws) == 0 {
		return nil, fmt.Errorf("core: empty system")
	}
	a := &Analysis{
		BusReports:     map[string]*rta.Report{},
		ECUReports:     map[string]*osek.Report{},
		TDMAReports:    map[string]*tdma.Report{},
		GatewayReports: map[string]*gateway.Report{},
	}
	for iter := 1; iter <= maxIterations; iter++ {
		a.Iterations = iter
		if err := s.analyzeLocal(an, a); err != nil {
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
	if err := s.analyzeLocal(an, a); err != nil {
		return nil, err
	}
	s.pathLatencies(a)
	return a, nil
}

// analyzeLocal refreshes all per-resource reports.
func (s *System) analyzeLocal(an Analyzers, a *Analysis) error {
	for _, name := range s.busNames {
		b := s.buses[name]
		rep, err := an.Bus(name, b.msgs, b.cfg)
		if err != nil {
			return err
		}
		a.BusReports[name] = rep
	}
	for _, name := range s.ecuNames {
		e := s.ecus[name]
		rep, err := an.ECU(name, e.tasks, e.cfg)
		if err != nil {
			return err
		}
		a.ECUReports[name] = rep
	}
	for _, name := range s.tdmaNames {
		t := s.tdmas[name]
		rep, err := an.TDMA(name, t.msgs, t.sched, t.bus, t.stuffing)
		if err != nil {
			return err
		}
		a.TDMAReports[name] = rep
	}
	for _, name := range s.gwNames {
		g := s.gws[name]
		rep, err := an.Gateway(name, g.flows, g.cfg)
		if err != nil {
			return err
		}
		a.GatewayReports[name] = rep
	}
	return nil
}

// propagate pushes output models along all links; reports whether any
// activation model changed.
func (s *System) propagate(a *Analysis) (bool, error) {
	changed := false
	for _, l := range s.links {
		out, err := s.outputModel(a, l.From)
		if err != nil {
			return false, err
		}
		dst, err := s.findElement(l.To)
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

// outputModel looks up the derived output event model of an element.
func (s *System) outputModel(a *Analysis, ref ElementRef) (eventmodel.Model, error) {
	if _, ok := s.buses[ref.Resource]; ok {
		rep := a.BusReports[ref.Resource]
		res := rep.ByName(ref.Element)
		if res == nil {
			return eventmodel.Model{}, fmt.Errorf("core: no analysis for %s", ref)
		}
		return res.OutputModel(), nil
	}
	if _, ok := s.tdmas[ref.Resource]; ok {
		rep := a.TDMAReports[ref.Resource]
		res := rep.ByName(ref.Element)
		if res == nil {
			return eventmodel.Model{}, fmt.Errorf("core: no analysis for %s", ref)
		}
		return res.OutputModel(), nil
	}
	if _, ok := s.gws[ref.Resource]; ok {
		rep := a.GatewayReports[ref.Resource]
		if rep == nil {
			return eventmodel.Model{}, fmt.Errorf("core: no analysis for %s", ref)
		}
		return rep.OutFlow(ref.Element)
	}
	rep := a.ECUReports[ref.Resource]
	if rep == nil {
		return eventmodel.Model{}, fmt.Errorf("core: no analysis for %s", ref)
	}
	res := rep.ByName(ref.Element)
	if res == nil {
		return eventmodel.Model{}, fmt.Errorf("core: no analysis for %s", ref)
	}
	return res.OutputModel(), nil
}

// pathLatencies fills in end-to-end bounds: the sum of from-arrival
// worst-case responses (WCRT minus inherited activation jitter) along
// the path.
func (s *System) pathLatencies(a *Analysis) {
	for _, p := range s.paths {
		pr := PathResult{Name: p.Name}
		total := time.Duration(0)
		bounded := true
		for _, ref := range p.Elements {
			delay, ok := s.hopDelay(a, ref)
			pr.Hops = append(pr.Hops, HopLatency{Ref: ref, Delay: delay})
			if !ok {
				bounded = false
				continue
			}
			total += delay
		}
		if bounded {
			pr.Latency = total
		} else {
			pr.Latency = Unbounded
		}
		a.Paths = append(a.Paths, pr)
	}
}

// hopDelay returns an element's from-arrival worst-case response.
func (s *System) hopDelay(a *Analysis, ref ElementRef) (time.Duration, bool) {
	if _, ok := s.buses[ref.Resource]; ok {
		res := a.BusReports[ref.Resource].ByName(ref.Element)
		if res == nil || res.WCRT == rta.Unschedulable {
			return Unbounded, false
		}
		return res.WCRT - res.Message.Event.Jitter, true
	}
	if _, ok := s.tdmas[ref.Resource]; ok {
		res := a.TDMAReports[ref.Resource].ByName(ref.Element)
		if res == nil || res.WCRT == tdma.Unschedulable {
			return Unbounded, false
		}
		// TDMA responses are already measured from the arrival instant.
		return res.WCRT, true
	}
	if _, ok := s.gws[ref.Resource]; ok {
		rep := a.GatewayReports[ref.Resource]
		if rep == nil {
			return Unbounded, false
		}
		for _, fr := range rep.Flows {
			if fr.Flow.Name != ref.Element {
				continue
			}
			if fr.Delay == gateway.Unbounded {
				return Unbounded, false
			}
			// Queueing delays are measured from the arrival instant.
			return fr.Delay, true
		}
		return Unbounded, false
	}
	res := a.ECUReports[ref.Resource].ByName(ref.Element)
	if res == nil || res.WCRT == osek.Unschedulable {
		return Unbounded, false
	}
	return res.WCRT - res.Task.Event.Jitter, true
}
