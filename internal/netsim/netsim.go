package netsim

import (
	"fmt"
	"time"

	"repro/internal/can"
	"repro/internal/eventmodel"
	"repro/internal/gateway"
	"repro/internal/sim"
	"repro/internal/tdma"
)

// Ref names a message on a bus (CAN or TDMA).
type Ref struct {
	// Bus is the bus name.
	Bus string
	// Message is the message name on that bus.
	Message string
}

// String renders the reference as bus/message.
func (r Ref) String() string { return r.Bus + "/" + r.Message }

// BusSpec describes one CAN bus of the topology.
type BusSpec struct {
	// Name identifies the bus.
	Name string
	// Bus provides the bit rate.
	Bus can.Bus
	// Controller selects the node buffer organisation.
	Controller sim.ControllerType
	// Stuffing selects simulated frame lengths.
	Stuffing sim.StuffingMode
	// Messages lists the streams on the bus. Messages that are the
	// destination of a Route are released by gateway forwarding, not by
	// the local calendar; all others release locally from their event
	// model.
	Messages []sim.MessageSpec
	// Errors lists absolute error-injection instants on this bus.
	Errors []time.Duration
}

// TDMABusSpec describes one time-triggered bus segment.
type TDMABusSpec struct {
	// Name identifies the bus.
	Name string
	// Bus provides the bit rate.
	Bus can.Bus
	// Stuffing selects the frame-length charge inside slots.
	Stuffing can.Stuffing
	// Schedule is the static cycle.
	Schedule tdma.Schedule
	// Messages lists the streams; each must own a slot.
	Messages []tdma.Message
}

// GatewaySpec describes one store-and-forward gateway.
type GatewaySpec struct {
	// Name identifies the gateway.
	Name string
	// Service is the activation model of the forwarding task: one
	// activation per Period, each delayed by a uniform draw from
	// [0, Jitter].
	Service eventmodel.Model
	// Batch is the number of queued messages forwarded per activation
	// (default 1).
	Batch int
	// Policy selects the queue organisation.
	Policy gateway.Policy
	// QueueDepth caps the shared FIFO; 0 means unbounded. Ignored for
	// per-message buffers.
	QueueDepth int
}

func (g GatewaySpec) batch() int {
	if g.Batch <= 0 {
		return 1
	}
	return g.Batch
}

// Route forwards completed instances of From through Gateway as
// releases of To. A message may fan out through several routes, but can
// be the destination of at most one.
type Route struct {
	// Gateway is the forwarding gateway.
	Gateway string
	// From is the source message (its completion enters the gateway).
	From Ref
	// To is the forwarded message on the destination bus.
	To Ref
}

// PathSpec is an end-to-end flow to trace: consecutive hops must be
// connected by routes, and the first hop must be locally released.
type PathSpec struct {
	// Name identifies the path in results.
	Name string
	// Hops lists the traversed messages in order.
	Hops []Ref
}

// Topology is a whole network under simulation.
type Topology struct {
	// Buses lists the CAN buses.
	Buses []BusSpec
	// TDMABuses lists the time-triggered segments.
	TDMABuses []TDMABusSpec
	// Gateways lists the forwarding gateways.
	Gateways []GatewaySpec
	// Routes lists the forwarding relations.
	Routes []Route
	// Paths lists the end-to-end flows to trace.
	Paths []PathSpec
}

// Config parameterises one network run.
type Config struct {
	// Duration is the simulated time span (default 2s).
	Duration time.Duration
	// Seed drives all randomness; each component derives its own RNG
	// from it.
	Seed int64
	// RecordTrace enables per-bus event recording.
	RecordTrace bool
	// TraceLimit caps recorded events per bus (default 10000).
	TraceLimit int
}

func (c Config) withDefaults() Config {
	if c.Duration == 0 {
		c.Duration = 2 * time.Second
	}
	if c.TraceLimit == 0 {
		c.TraceLimit = 10000
	}
	return c
}

// BusResult aggregates one bus's outcomes (CAN or TDMA).
type BusResult struct {
	// Name identifies the bus.
	Name string
	// Stats holds one entry per message, in input order. For
	// gateway-fed messages, Released counts forwarded injections.
	Stats []sim.Stats
	// BusBusy is the accumulated bus occupation.
	BusBusy time.Duration
	// Errors counts injected errors that hit a transmission.
	Errors int
	// Trace holds recorded events when enabled.
	Trace []sim.Event
	// TraceTruncated reports that TraceLimit dropped events.
	TraceTruncated bool
}

// StatsByName returns the stats of the named message, or nil.
func (r *BusResult) StatsByName(name string) *sim.Stats {
	for i := range r.Stats {
		if r.Stats[i].Name == name {
			return &r.Stats[i]
		}
	}
	return nil
}

// GatewayResult aggregates one gateway's outcomes.
type GatewayResult struct {
	// Name identifies the gateway.
	Name string
	// Arrivals counts instances entering the gateway.
	Arrivals int
	// Forwarded counts instances released on destination buses.
	Forwarded int
	// Activations counts service activations.
	Activations int
	// MaxBacklog is the maximum queue occupancy observed at the end of
	// any event instant (after coincident services drained).
	MaxBacklog int
	// OverflowDrops counts arrivals dropped by a full shared FIFO.
	OverflowDrops int
	// OverwriteLosses counts per-message-buffer overwrites of
	// unforwarded instances.
	OverwriteLosses int
}

// Lost returns the total instances lost inside the gateway.
func (g *GatewayResult) Lost() int { return g.OverflowDrops + g.OverwriteLosses }

// PathResult aggregates the traced end-to-end latencies of one path.
type PathResult struct {
	// Name identifies the path.
	Name string
	// Completed counts instances that traversed the whole path.
	Completed int
	// Dropped counts instances lost at any element of the path
	// (sender-buffer overwrite, FIFO overflow, buffer overwrite).
	Dropped int
	// MaxLatency and MinLatency span the observed first-release to
	// final-delivery latencies of completed instances.
	MaxLatency time.Duration
	MinLatency time.Duration
}

// Result is the outcome of one network run.
type Result struct {
	// Duration echoes the simulated span.
	Duration time.Duration
	// Buses holds one entry per CAN bus, in topology order.
	Buses []BusResult
	// TDMABuses holds one entry per TDMA segment, in topology order.
	TDMABuses []BusResult
	// Gateways holds one entry per gateway, in topology order.
	Gateways []GatewayResult
	// Paths holds one entry per traced path, in topology order.
	Paths []PathResult
}

// Bus returns the result of the named CAN or TDMA bus, or nil.
func (r *Result) Bus(name string) *BusResult {
	for i := range r.Buses {
		if r.Buses[i].Name == name {
			return &r.Buses[i]
		}
	}
	for i := range r.TDMABuses {
		if r.TDMABuses[i].Name == name {
			return &r.TDMABuses[i]
		}
	}
	return nil
}

// Gateway returns the result of the named gateway, or nil.
func (r *Result) Gateway(name string) *GatewayResult {
	for i := range r.Gateways {
		if r.Gateways[i].Name == name {
			return &r.Gateways[i]
		}
	}
	return nil
}

// Path returns the result of the named path, or nil.
func (r *Result) Path(name string) *PathResult {
	for i := range r.Paths {
		if r.Paths[i].Name == name {
			return &r.Paths[i]
		}
	}
	return nil
}

// Validate checks the topology for structural consistency.
func (t *Topology) Validate() error {
	if len(t.Buses)+len(t.TDMABuses) == 0 {
		return fmt.Errorf("netsim: topology without buses")
	}
	names := map[string]bool{}
	resource := func(name, kind string) error {
		if name == "" {
			return fmt.Errorf("netsim: %s without name", kind)
		}
		if names[name] {
			return fmt.Errorf("netsim: duplicate resource %q", name)
		}
		names[name] = true
		return nil
	}
	fed := map[Ref]bool{}
	for _, r := range t.Routes {
		fed[r.To] = true
	}

	msgs := map[Ref]bool{}
	for _, b := range t.Buses {
		if err := resource(b.Name, "bus"); err != nil {
			return err
		}
		if err := b.Bus.Validate(); err != nil {
			return fmt.Errorf("netsim: bus %s: %w", b.Name, err)
		}
		if len(b.Messages) == 0 {
			return fmt.Errorf("netsim: bus %s has no messages", b.Name)
		}
		seen := map[string]bool{}
		ids := map[can.Identifier]string{}
		for _, m := range b.Messages {
			if m.Name == "" {
				return fmt.Errorf("netsim: bus %s: message with ID %s has no name", b.Name, m.Frame.ID)
			}
			if seen[m.Name] {
				return fmt.Errorf("netsim: bus %s: duplicate message %q", b.Name, m.Name)
			}
			seen[m.Name] = true
			if err := m.Frame.Validate(); err != nil {
				return fmt.Errorf("netsim: bus %s: message %s: %w", b.Name, m.Name, err)
			}
			if err := m.Event.Validate(); err != nil {
				return fmt.Errorf("netsim: bus %s: message %s: %w", b.Name, m.Name, err)
			}
			id := m.Frame.Identifier()
			if prev, dup := ids[id]; dup {
				return fmt.Errorf("netsim: bus %s: messages %q and %q share %s ID %s",
					b.Name, prev, m.Name, id.Format, id.ID)
			}
			ids[id] = m.Name
			if m.Node == "" {
				return fmt.Errorf("netsim: bus %s: message %s: no node", b.Name, m.Name)
			}
			if m.Offset < 0 {
				return fmt.Errorf("netsim: bus %s: message %s: negative offset", b.Name, m.Name)
			}
			msgs[Ref{b.Name, m.Name}] = true
		}
	}
	for _, d := range t.TDMABuses {
		if err := resource(d.Name, "TDMA bus"); err != nil {
			return err
		}
		if err := d.Bus.Validate(); err != nil {
			return fmt.Errorf("netsim: TDMA bus %s: %w", d.Name, err)
		}
		if d.Schedule.Cycle() <= 0 {
			return fmt.Errorf("netsim: TDMA bus %s: empty schedule", d.Name)
		}
		// tdma.Analyze re-validates slots and frames; here we only need
		// the structural facts the engine depends on.
		if _, err := tdma.Analyze(d.Messages, d.Schedule, d.Bus, d.Stuffing); err != nil {
			return fmt.Errorf("netsim: %w", err)
		}
		for _, m := range d.Messages {
			msgs[Ref{d.Name, m.Name}] = true
		}
	}
	gws := map[string]bool{}
	for _, g := range t.Gateways {
		if err := resource(g.Name, "gateway"); err != nil {
			return err
		}
		if err := g.Service.Validate(); err != nil {
			return fmt.Errorf("netsim: gateway %s: service: %w", g.Name, err)
		}
		if g.Batch < 0 {
			return fmt.Errorf("netsim: gateway %s: negative batch %d", g.Name, g.Batch)
		}
		if g.QueueDepth < 0 {
			return fmt.Errorf("netsim: gateway %s: negative queue depth %d", g.Name, g.QueueDepth)
		}
		gws[g.Name] = true
	}
	dest := map[Ref]bool{}
	for _, r := range t.Routes {
		if !gws[r.Gateway] {
			return fmt.Errorf("netsim: route %s -> %s: unknown gateway %q", r.From, r.To, r.Gateway)
		}
		if !msgs[r.From] {
			return fmt.Errorf("netsim: route: unknown source %s", r.From)
		}
		if !msgs[r.To] {
			return fmt.Errorf("netsim: route: unknown destination %s", r.To)
		}
		if r.From == r.To {
			return fmt.Errorf("netsim: route %s forwards to itself", r.From)
		}
		if dest[r.To] {
			return fmt.Errorf("netsim: %s is the destination of multiple routes", r.To)
		}
		dest[r.To] = true
	}
	routed := map[[2]Ref]bool{}
	for _, r := range t.Routes {
		routed[[2]Ref{r.From, r.To}] = true
	}
	pathNames := map[string]bool{}
	for _, p := range t.Paths {
		if p.Name == "" {
			return fmt.Errorf("netsim: path without name")
		}
		if pathNames[p.Name] {
			return fmt.Errorf("netsim: duplicate path %q", p.Name)
		}
		pathNames[p.Name] = true
		if len(p.Hops) == 0 {
			return fmt.Errorf("netsim: path %q has no hops", p.Name)
		}
		for _, h := range p.Hops {
			if !msgs[h] {
				return fmt.Errorf("netsim: path %q: unknown element %s", p.Name, h)
			}
		}
		if fed[p.Hops[0]] {
			return fmt.Errorf("netsim: path %q: first hop %s is gateway-fed; paths must start at a local release",
				p.Name, p.Hops[0])
		}
		for i := 0; i+1 < len(p.Hops); i++ {
			if !routed[[2]Ref{p.Hops[i], p.Hops[i+1]}] {
				return fmt.Errorf("netsim: path %q: no route connects %s to %s",
					p.Name, p.Hops[i], p.Hops[i+1])
			}
		}
	}
	return nil
}

// Run simulates the topology for one seed.
func Run(topo *Topology, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	e, err := newEngine(topo, cfg)
	if err != nil {
		return nil, err
	}
	e.run()
	return e.result(), nil
}
