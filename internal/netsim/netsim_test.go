package netsim

import (
	"testing"
	"time"

	"repro/internal/can"
	"repro/internal/eventmodel"
	"repro/internal/gateway"
	"repro/internal/sim"
	"repro/internal/tdma"
)

const (
	us = time.Microsecond
	ms = time.Millisecond
)

func msg(name string, id can.ID, dlc int, ev eventmodel.Model) sim.MessageSpec {
	return sim.MessageSpec{
		Name: name, Frame: can.Frame{ID: id, DLC: dlc}, Event: ev, Node: name,
	}
}

// twoBusTopology is the canonical forwarding fixture: WheelSpeed on the
// chassis bus forwards through gw onto the powertrain bus.
func twoBusTopology(depth int, policy gateway.Policy, service eventmodel.Model) *Topology {
	return &Topology{
		Buses: []BusSpec{
			{
				Name: "chassis", Bus: can.Bus{BitRate: can.Rate500k},
				Messages: []sim.MessageSpec{
					msg("WheelSpeed", 0x0A0, 8, eventmodel.PeriodicJitter(10*ms, 1*ms)),
					msg("Suspension", 0x150, 8, eventmodel.Periodic(20*ms)),
					msg("Brake", 0x060, 6, eventmodel.PeriodicJitter(5*ms, 1*ms)),
				},
			},
			{
				Name: "powertrain", Bus: can.Bus{BitRate: can.Rate500k},
				Messages: []sim.MessageSpec{
					msg("WheelSpeedPT", 0x0B0, 8, eventmodel.PeriodicJitter(10*ms, 2*ms)),
					msg("EngineTorque", 0x090, 8, eventmodel.PeriodicJitter(10*ms, 2*ms)),
					msg("Lambda", 0x200, 4, eventmodel.Periodic(50*ms)),
				},
			},
		},
		Gateways: []GatewaySpec{
			{Name: "gw", Service: service, Policy: policy, QueueDepth: depth},
		},
		Routes: []Route{
			{Gateway: "gw", From: Ref{"chassis", "WheelSpeed"}, To: Ref{"powertrain", "WheelSpeedPT"}},
		},
		Paths: []PathSpec{
			{Name: "wheel", Hops: []Ref{{"chassis", "WheelSpeed"}, {"powertrain", "WheelSpeedPT"}}},
		},
	}
}

func TestForwardingBasic(t *testing.T) {
	topo := twoBusTopology(0, gateway.SharedFIFO, eventmodel.Periodic(2*ms))
	res, err := Run(topo, Config{Duration: 500 * ms, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	chassis := res.Bus("chassis")
	pt := res.Bus("powertrain")
	gw := res.Gateway("gw")
	path := res.Path("wheel")
	if chassis == nil || pt == nil || gw == nil || path == nil {
		t.Fatal("missing result sections")
	}

	ws := chassis.StatsByName("WheelSpeed")
	if ws.Sent == 0 {
		t.Fatal("WheelSpeed never sent")
	}
	// Every delivered WheelSpeed enters the gateway.
	if gw.Arrivals != ws.Sent {
		t.Errorf("gateway arrivals = %d, want %d (WheelSpeed deliveries)", gw.Arrivals, ws.Sent)
	}
	// The fed message releases only by forwarding.
	wspt := pt.StatsByName("WheelSpeedPT")
	if wspt.Released != gw.Forwarded {
		t.Errorf("WheelSpeedPT released %d, want %d (gateway forwards)", wspt.Released, gw.Forwarded)
	}
	if gw.OverflowDrops != 0 || gw.OverwriteLosses != 0 {
		t.Errorf("unbounded FIFO lost messages: drops %d, overwrites %d",
			gw.OverflowDrops, gw.OverwriteLosses)
	}
	// Path accounting: completions + in-flight == origin deliveries.
	if path.Completed == 0 {
		t.Fatal("no path completions")
	}
	if path.Completed > ws.Sent {
		t.Errorf("path completed %d > %d origin deliveries", path.Completed, ws.Sent)
	}
	// An end-to-end latency spans at least two wire times plus the
	// origin queueing; it must exceed each bus's observed per-hop max.
	if path.MaxLatency <= wspt.MaxResponse {
		t.Errorf("path max latency %v not above destination hop response %v",
			path.MaxLatency, wspt.MaxResponse)
	}
	if path.MinLatency <= 0 {
		t.Errorf("path min latency %v must be positive", path.MinLatency)
	}
}

func TestSharedFIFOOverflowOnlyWhenShallow(t *testing.T) {
	// A slow service accumulates backlog; depth 1 must drop, a deep
	// queue must not.
	service := eventmodel.Periodic(9 * ms)
	shallow := twoBusTopology(1, gateway.SharedFIFO, service)
	// Push a burst through the gateway: a second routed flow doubles
	// the arrivals per service period.
	shallow.Buses[0].Messages[1] = msg("Suspension", 0x150, 8, eventmodel.PeriodicJitter(10*ms, 2*ms))
	shallow.Buses[1].Messages = append(shallow.Buses[1].Messages,
		msg("SuspensionPT", 0x151, 8, eventmodel.Periodic(20*ms)))
	shallow.Routes = append(shallow.Routes, Route{
		Gateway: "gw", From: Ref{"chassis", "Suspension"}, To: Ref{"powertrain", "SuspensionPT"},
	})

	res, err := Run(shallow, Config{Duration: 2 * time.Second, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Gateway("gw").OverflowDrops == 0 {
		t.Error("depth-1 FIFO under 2x10ms arrivals vs 9ms service never overflowed")
	}
	if res.Path("wheel").Dropped == 0 {
		t.Error("path through the overflowing gateway reports no drops")
	}

	deep := twoBusTopology(64, gateway.SharedFIFO, eventmodel.Periodic(2*ms))
	res, err = Run(deep, Config{Duration: 2 * time.Second, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if drops := res.Gateway("gw").OverflowDrops; drops != 0 {
		t.Errorf("deep FIFO dropped %d", drops)
	}
}

func TestPerMessageBufferOverwrite(t *testing.T) {
	// Service slower than the arrival stream: a fresh instance must
	// overwrite the stale one instead of queueing.
	topo := twoBusTopology(0, gateway.PerMessageBuffer, eventmodel.Periodic(25*ms))
	res, err := Run(topo, Config{Duration: 2 * time.Second, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	gw := res.Gateway("gw")
	if gw.OverwriteLosses == 0 {
		t.Error("10ms arrivals vs 25ms service never overwrote")
	}
	if gw.MaxBacklog > 1 {
		t.Errorf("per-message buffer backlog %d exceeds one slot per route", gw.MaxBacklog)
	}
	if gw.OverflowDrops != 0 {
		t.Error("per-message buffers cannot overflow")
	}
	// Conservation: everything arriving is forwarded, lost, or parked.
	parked := gw.Arrivals - gw.Forwarded - gw.OverwriteLosses
	if parked < 0 || parked > 1 {
		t.Errorf("conservation broken: %d arrivals, %d forwarded, %d overwritten",
			gw.Arrivals, gw.Forwarded, gw.OverwriteLosses)
	}
}

func TestTDMASegmentResponses(t *testing.T) {
	// A chain CAN -> gateway -> TDMA: observed slot responses must stay
	// below the tdma analysis bound for the propagated arrival model.
	sched := tdma.Schedule{Slots: []tdma.Slot{
		{Owner: "WheelTT", Length: 500 * us},
		{Owner: "StatusTT", Length: 500 * us},
	}}
	ttBus := can.Bus{BitRate: can.Rate500k}
	ttMsgs := []tdma.Message{
		{Name: "WheelTT", Frame: can.Frame{ID: 0x01, DLC: 8}, Event: eventmodel.PeriodicJitter(10*ms, 3*ms)},
		{Name: "StatusTT", Frame: can.Frame{ID: 0x02, DLC: 8}, Event: eventmodel.Periodic(20 * ms)},
	}
	topo := twoBusTopology(0, gateway.SharedFIFO, eventmodel.Periodic(2*ms))
	topo.TDMABuses = []TDMABusSpec{{
		Name: "backbone", Bus: ttBus, Stuffing: can.StuffingWorstCase,
		Schedule: sched, Messages: ttMsgs,
	}}
	topo.Routes = append(topo.Routes, Route{
		Gateway: "gw", From: Ref{"powertrain", "WheelSpeedPT"}, To: Ref{"backbone", "WheelTT"},
	})
	topo.Paths = append(topo.Paths, PathSpec{
		Name: "wheel-tt",
		Hops: []Ref{{"chassis", "WheelSpeed"}, {"powertrain", "WheelSpeedPT"}, {"backbone", "WheelTT"}},
	})

	res, err := Run(topo, Config{Duration: 2 * time.Second, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	bb := res.Bus("backbone")
	wtt := bb.StatsByName("WheelTT")
	if wtt.Sent == 0 {
		t.Fatal("WheelTT never served")
	}
	// The propagated arrival jitter is generous (3ms covers the
	// upstream variation); the analytic bound must dominate.
	rep, err := tdma.Analyze(ttMsgs, sched, ttBus, can.StuffingWorstCase)
	if err != nil {
		t.Fatal(err)
	}
	if bound := rep.ByName("WheelTT").WCRT; wtt.MaxResponse > bound {
		t.Errorf("WheelTT observed %v exceeds TDMA bound %v", wtt.MaxResponse, bound)
	}
	if p := res.Path("wheel-tt"); p.Completed == 0 {
		t.Error("three-hop path never completed")
	}
	st := bb.StatsByName("StatusTT")
	if st.Sent == 0 {
		t.Error("locally released TDMA message never served")
	}
}

func TestValidateRejectsBrokenTopologies(t *testing.T) {
	base := func() *Topology { return twoBusTopology(0, gateway.SharedFIFO, eventmodel.Periodic(2*ms)) }

	topo := base()
	topo.Routes[0].Gateway = "nope"
	if _, err := Run(topo, Config{}); err == nil {
		t.Error("unknown gateway accepted")
	}
	topo = base()
	topo.Routes[0].From = Ref{"chassis", "nope"}
	if _, err := Run(topo, Config{}); err == nil {
		t.Error("unknown route source accepted")
	}
	topo = base()
	topo.Routes = append(topo.Routes, Route{
		Gateway: "gw", From: Ref{"chassis", "Brake"}, To: Ref{"powertrain", "WheelSpeedPT"},
	})
	if _, err := Run(topo, Config{}); err == nil {
		t.Error("double-fed destination accepted")
	}
	topo = base()
	topo.Paths[0].Hops = []Ref{{"powertrain", "WheelSpeedPT"}}
	if _, err := Run(topo, Config{}); err == nil {
		t.Error("path starting at a fed message accepted")
	}
	topo = base()
	topo.Paths[0].Hops = []Ref{{"chassis", "WheelSpeed"}, {"powertrain", "EngineTorque"}}
	if _, err := Run(topo, Config{}); err == nil {
		t.Error("unconnected path accepted")
	}
	topo = base()
	topo.Buses[0].Messages[1].Frame.ID = 0x0A0
	if _, err := Run(topo, Config{}); err == nil {
		t.Error("duplicate CAN ID accepted")
	}
}

func TestBasicCANNetworkRuns(t *testing.T) {
	topo := twoBusTopology(0, gateway.SharedFIFO, eventmodel.Periodic(2*ms))
	topo.Buses[0].Controller = sim.BasicCAN
	for i := range topo.Buses[0].Messages {
		topo.Buses[0].Messages[i].Node = "bodyECU" // one FIFO node
	}
	res, err := Run(topo, Config{Duration: 500 * ms, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Path("wheel").Completed == 0 {
		t.Error("no completions under basicCAN")
	}
}

func TestErrorInjectionOnBus(t *testing.T) {
	topo := twoBusTopology(0, gateway.SharedFIFO, eventmodel.Periodic(2*ms))
	// All three streams release at t=0 (zero offsets), so the bus is
	// busy for several frame times from the start: an injection inside
	// that window must abort a transmission.
	topo.Buses[0].Errors = []time.Duration{50 * us, 20*ms + 50*us}
	res, err := Run(topo, Config{Duration: 500 * ms, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bus("chassis").Errors == 0 {
		t.Error("no injected error hit a transmission")
	}
	retrans := 0
	for _, st := range res.Bus("chassis").Stats {
		retrans += st.Retransmissions
	}
	if retrans == 0 {
		t.Error("errors caused no retransmissions")
	}
}

func TestPerMessageBufferServiceIsFair(t *testing.T) {
	// Two flows re-occupy their buffers every service period while the
	// batch forwards only one: the round-robin scan must keep serving
	// both instead of starving the higher slot index.
	topo := &Topology{
		Buses: []BusSpec{
			{
				Name: "src", Bus: can.Bus{BitRate: can.Rate500k},
				Messages: []sim.MessageSpec{
					msg("A1", 0x100, 8, eventmodel.Periodic(2*ms)),
					msg("A2", 0x101, 8, eventmodel.Periodic(2*ms)),
				},
			},
			{
				Name: "dst", Bus: can.Bus{BitRate: can.Rate500k},
				Messages: []sim.MessageSpec{
					msg("B1", 0x110, 8, eventmodel.Periodic(2*ms)),
					msg("B2", 0x111, 8, eventmodel.Periodic(2*ms)),
				},
			},
		},
		Gateways: []GatewaySpec{
			{Name: "gw", Service: eventmodel.Periodic(2 * ms), Policy: gateway.PerMessageBuffer, Batch: 1},
		},
		Routes: []Route{
			{Gateway: "gw", From: Ref{"src", "A1"}, To: Ref{"dst", "B1"}},
			{Gateway: "gw", From: Ref{"src", "A2"}, To: Ref{"dst", "B2"}},
		},
	}
	res, err := Run(topo, Config{Duration: time.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b1 := res.Bus("dst").StatsByName("B1").Released
	b2 := res.Bus("dst").StatsByName("B2").Released
	if b1 == 0 || b2 == 0 {
		t.Fatalf("starved flow: B1 forwarded %d, B2 forwarded %d", b1, b2)
	}
	// The service splits roughly evenly between the two buffers.
	if b1 > 2*b2 || b2 > 2*b1 {
		t.Errorf("unbalanced forwarding: B1 %d vs B2 %d", b1, b2)
	}
}

func TestPerMessageBufferBatchForwardsEveryOccupiedBuffer(t *testing.T) {
	// Both buffers fill once per service period and the batch covers
	// both, so every activation must forward two instances and no
	// instance may be overwritten before its turn — the gateway
	// contract gateway.Analyze assumes.
	topo := &Topology{
		Buses: []BusSpec{
			{
				Name: "src", Bus: can.Bus{BitRate: can.Rate500k},
				Messages: []sim.MessageSpec{
					msg("A1", 0x100, 8, eventmodel.Periodic(2*ms)),
					msg("A2", 0x101, 8, eventmodel.Periodic(2*ms)),
				},
			},
			{
				Name: "dst", Bus: can.Bus{BitRate: can.Rate500k},
				Messages: []sim.MessageSpec{
					msg("B1", 0x110, 8, eventmodel.Periodic(2*ms)),
					msg("B2", 0x111, 8, eventmodel.Periodic(2*ms)),
				},
			},
		},
		Gateways: []GatewaySpec{
			{Name: "gw", Service: eventmodel.Periodic(2 * ms), Policy: gateway.PerMessageBuffer, Batch: 2},
		},
		Routes: []Route{
			{Gateway: "gw", From: Ref{"src", "A1"}, To: Ref{"dst", "B1"}},
			{Gateway: "gw", From: Ref{"src", "A2"}, To: Ref{"dst", "B2"}},
		},
	}
	res, err := Run(topo, Config{Duration: time.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := res.Gateway("gw")
	if g.Forwarded != 2*g.Activations || g.OverwriteLosses != 0 {
		t.Fatalf("%d activations forwarded %d of %d arrivals with %d overwrite losses; want %d forwarded, 0 lost",
			g.Activations, g.Forwarded, g.Arrivals, g.OverwriteLosses, 2*g.Activations)
	}
}
