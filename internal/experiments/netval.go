package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/can"
	"repro/internal/core"
	"repro/internal/eventmodel"
	"repro/internal/gateway"
	"repro/internal/netsim"
	"repro/internal/osek"
	"repro/internal/report"
	"repro/internal/rta"
	"repro/internal/tdma"
)

// NetworkValidation is the network-level cross-validation experiment:
// one core.System — two CAN buses, a TDMA backbone, two gateways with
// different queue policies — analysed compositionally and simulated
// holistically over a seed fan. The paper's network-integration claim
// rests on the compositional bounds dominating every holistic
// observation: end-to-end path latencies, per-message responses,
// gateway queue backlogs, and loss occurring only where the analysis
// predicted a queue too shallow.
type NetworkValidation struct {
	// Seeds is the number of simulated runs.
	Seeds int
	// Duration is the simulated span per run.
	Duration time.Duration
	// Shallow records whether the FIFO was deliberately under-dimensioned.
	Shallow bool
	// Validation holds the per-path and per-gateway checks with every
	// run folded in.
	*netsim.Validation
}

// NetworkValidationParams tunes the run; the zero value is the full
// experiment with a loss-free queue dimensioning.
type NetworkValidationParams struct {
	// Seeds is the number of runs (default 32).
	Seeds int
	// Duration is the simulated span per run (default 2s).
	Duration time.Duration
	// Workers bounds the worker pool (default GOMAXPROCS).
	Workers int
	// Shallow under-dimensions the shared FIFO to depth 1, so the
	// analysis predicts overflow and the simulation must show it —
	// the "loss only where predicted" direction of the check.
	Shallow bool
	// Trace records bus traces on the first seed (for the network
	// Gantt rendering).
	Trace bool
}

// NetworkCaseStudy wires the reference topology: chassis and
// powertrain CAN buses bridged by a shared-FIFO gateway (two flows),
// a TDMA backbone fed through a per-message-buffer gateway, ECU tasks
// at the ends, and two traced paths.
func NetworkCaseStudy(fifoDepth int) (*core.System, error) {
	s := core.NewSystem()
	busCfg := rta.Config{
		Bus: can.Bus{BitRate: can.Rate500k}, Stuffing: can.StuffingWorstCase,
		DeadlineModel: rta.DeadlineImplicit,
	}
	us, ms := time.Microsecond, time.Millisecond

	if err := s.AddECU("bodyECU", osek.Config{}, []osek.Task{
		{Name: "acquire", Priority: 1, WCET: 600 * us, BCET: 400 * us,
			Event: eventmodel.Periodic(10 * ms), Kind: osek.Preemptive},
	}); err != nil {
		return nil, err
	}
	if err := s.AddBus("chassis", busCfg, []rta.Message{
		{Name: "WheelSpeed", Frame: can.Frame{ID: 0x0A0, DLC: 8}, Event: eventmodel.PeriodicJitter(10*ms, 1*ms)},
		{Name: "Suspension", Frame: can.Frame{ID: 0x150, DLC: 8}, Event: eventmodel.PeriodicJitter(20*ms, 2*ms)},
		{Name: "Brake", Frame: can.Frame{ID: 0x060, DLC: 6}, Event: eventmodel.PeriodicJitter(5*ms, 1*ms)},
		{Name: "Yaw", Frame: can.Frame{ID: 0x120, DLC: 8}, Event: eventmodel.Periodic(20 * ms)},
	}); err != nil {
		return nil, err
	}
	if err := s.AddGateway("gwPT", gateway.Config{
		Service: eventmodel.Periodic(2 * ms), Policy: gateway.SharedFIFO, QueueDepth: fifoDepth,
	}, []string{"ws", "susp"}); err != nil {
		return nil, err
	}
	if err := s.AddBus("powertrain", busCfg, []rta.Message{
		{Name: "WheelSpeedPT", Frame: can.Frame{ID: 0x0B0, DLC: 8}, Event: eventmodel.PeriodicJitter(10*ms, 2*ms)},
		{Name: "SuspensionPT", Frame: can.Frame{ID: 0x151, DLC: 8}, Event: eventmodel.PeriodicJitter(20*ms, 4*ms)},
		{Name: "EngineTorque", Frame: can.Frame{ID: 0x090, DLC: 8}, Event: eventmodel.PeriodicJitter(10*ms, 2*ms)},
		{Name: "Lambda", Frame: can.Frame{ID: 0x200, DLC: 4}, Event: eventmodel.Periodic(50 * ms)},
	}); err != nil {
		return nil, err
	}
	if err := s.AddGateway("gwTT", gateway.Config{
		Service: eventmodel.Periodic(3 * ms), Policy: gateway.PerMessageBuffer,
	}, []string{"wheel"}); err != nil {
		return nil, err
	}
	if err := s.AddTDMABus("backbone",
		tdma.Schedule{Slots: []tdma.Slot{
			{Owner: "WheelTT", Length: 500 * us},
			{Owner: "StatusTT", Length: 500 * us},
		}},
		can.Bus{BitRate: can.Rate500k}, can.StuffingWorstCase,
		[]tdma.Message{
			{Name: "WheelTT", Frame: can.Frame{ID: 0x01, DLC: 8}, Event: eventmodel.PeriodicJitter(10*ms, 4*ms)},
			{Name: "StatusTT", Frame: can.Frame{ID: 0x02, DLC: 8}, Event: eventmodel.Periodic(20 * ms)},
		}); err != nil {
		return nil, err
	}
	if err := s.AddECU("engineECU", osek.Config{}, []osek.Task{
		{Name: "control", Priority: 1, WCET: 1 * ms, BCET: 800 * us,
			Event: eventmodel.Periodic(10 * ms), Kind: osek.Preemptive},
	}); err != nil {
		return nil, err
	}

	links := [][2]core.ElementRef{
		{{Resource: "bodyECU", Element: "acquire"}, {Resource: "chassis", Element: "WheelSpeed"}},
		{{Resource: "chassis", Element: "WheelSpeed"}, {Resource: "gwPT", Element: "ws"}},
		{{Resource: "gwPT", Element: "ws"}, {Resource: "powertrain", Element: "WheelSpeedPT"}},
		{{Resource: "chassis", Element: "Suspension"}, {Resource: "gwPT", Element: "susp"}},
		{{Resource: "gwPT", Element: "susp"}, {Resource: "powertrain", Element: "SuspensionPT"}},
		{{Resource: "powertrain", Element: "WheelSpeedPT"}, {Resource: "gwTT", Element: "wheel"}},
		{{Resource: "gwTT", Element: "wheel"}, {Resource: "backbone", Element: "WheelTT"}},
		{{Resource: "backbone", Element: "WheelTT"}, {Resource: "engineECU", Element: "control"}},
	}
	for _, l := range links {
		if err := s.Connect(l[0], l[1]); err != nil {
			return nil, err
		}
	}
	if err := s.AddPath("wheel-e2e",
		core.ElementRef{Resource: "chassis", Element: "WheelSpeed"},
		core.ElementRef{Resource: "gwPT", Element: "ws"},
		core.ElementRef{Resource: "powertrain", Element: "WheelSpeedPT"},
		core.ElementRef{Resource: "gwTT", Element: "wheel"},
		core.ElementRef{Resource: "backbone", Element: "WheelTT"},
	); err != nil {
		return nil, err
	}
	if err := s.AddPath("suspension",
		core.ElementRef{Resource: "chassis", Element: "Suspension"},
		core.ElementRef{Resource: "gwPT", Element: "susp"},
		core.ElementRef{Resource: "powertrain", Element: "SuspensionPT"},
	); err != nil {
		return nil, err
	}
	return s, nil
}

// DimensionedFIFODepth is the loss-free FIFO depth of the case study,
// comfortably above the analytic backlog bound.
const DimensionedFIFODepth = 8

// RunNetworkValidation analyses the case-study topology, fans the
// network simulator over the seeds, and folds every observation
// against its compositional bound.
func RunNetworkValidation(p NetworkValidationParams) (*NetworkValidation, []report.BusTrace, error) {
	if p.Seeds <= 0 {
		p.Seeds = 32
	}
	if p.Duration <= 0 {
		p.Duration = 2 * time.Second
	}
	depth := DimensionedFIFODepth
	if p.Shallow {
		depth = 1
	}
	sys, err := NetworkCaseStudy(depth)
	if err != nil {
		return nil, nil, err
	}
	a, err := sys.Analyze(0)
	if err != nil {
		return nil, nil, err
	}
	if !a.Converged {
		return nil, nil, fmt.Errorf("netval: analysis did not converge")
	}
	topo, err := netsim.FromSystem(sys)
	if err != nil {
		return nil, nil, err
	}
	seeds := make([]int64, p.Seeds)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	results, err := netsim.RunSeeds(topo, netsim.Config{Duration: p.Duration}, seeds, p.Workers)
	if err != nil {
		return nil, nil, err
	}

	v := netsim.NewValidation(sys, a, topo)
	for _, pc := range v.Paths {
		if !pc.Bounded {
			return nil, nil, fmt.Errorf("netval: unbounded path %s", pc.Name)
		}
	}
	for _, res := range results {
		v.Add(res)
	}
	nv := &NetworkValidation{Seeds: p.Seeds, Duration: p.Duration, Shallow: p.Shallow, Validation: v}

	var traces []report.BusTrace
	if p.Trace {
		one, err := netsim.Run(topo, netsim.Config{
			Duration: p.Duration, Seed: seeds[0], RecordTrace: true,
		})
		if err != nil {
			return nil, nil, err
		}
		traces = networkTraces(topo, one)
	}
	return nv, traces, nil
}

// networkTraces assembles the per-bus traces of one run for the
// network Gantt rendering, in topology order.
func networkTraces(topo *netsim.Topology, res *netsim.Result) []report.BusTrace {
	var out []report.BusTrace
	add := func(name string, msgNames []string) {
		br := res.Bus(name)
		if br == nil {
			return
		}
		out = append(out, report.BusTrace{Name: name, Messages: msgNames, Trace: br.Trace})
	}
	for _, b := range topo.Buses {
		names := make([]string, len(b.Messages))
		for i, m := range b.Messages {
			names[i] = m.Name
		}
		add(b.Name, names)
	}
	for _, d := range topo.TDMABuses {
		names := make([]string, len(d.Messages))
		for i, m := range d.Messages {
			names[i] = m.Name
		}
		add(d.Name, names)
	}
	return out
}

// Render summarises the network validation outcome.
func (n *NetworkValidation) Render() string {
	var b strings.Builder
	b.WriteString("Network Monte-Carlo cross-validation — holistic simulation vs. compositional bounds\n\n")
	rows := [][]string{
		{"runs x duration", fmt.Sprintf("%d x %v", n.Seeds, n.Duration)},
		{"frames delivered", fmt.Sprint(n.Frames)},
		{"bound violations", fmt.Sprint(n.Violations)},
		{"gateway losses", fmt.Sprint(n.Losses)},
	}
	b.WriteString(report.Table([]string{"quantity", "value"}, rows))

	b.WriteString("\nend-to-end paths (observed max vs. compositional bound):\n")
	prow := make([][]string, 0, len(n.Paths))
	for _, r := range n.Paths {
		margin := "-"
		if r.Bound > 0 {
			margin = fmt.Sprintf("%.1f%%", 100*float64(r.Bound-r.Observed)/float64(r.Bound))
		}
		prow = append(prow, []string{
			r.Name, fmt.Sprint(r.Completed), fmt.Sprint(r.Dropped),
			r.Observed.String(), r.Bound.String(), margin,
		})
	}
	b.WriteString(report.Table(
		[]string{"path", "completed", "dropped", "observed", "bound", "margin"}, prow))

	b.WriteString("\ngateways (observed backlog vs. bound, loss vs. prediction):\n")
	grow := make([][]string, 0, len(n.Gateways))
	for _, r := range n.Gateways {
		depth := "unbounded"
		if r.QueueDepth > 0 {
			depth = fmt.Sprint(r.QueueDepth)
		}
		predicted := "no loss"
		if r.LossPredicted {
			predicted = "loss possible"
		}
		grow = append(grow, []string{
			r.Name, r.Policy.String(), depth,
			fmt.Sprint(r.MaxBacklog), fmt.Sprint(r.BacklogBound),
			fmt.Sprint(r.Losses), predicted,
		})
	}
	b.WriteString(report.Table(
		[]string{"gateway", "policy", "depth", "max backlog", "bound", "losses", "analysis"}, grow))

	if n.Violations == 0 {
		if n.Shallow {
			b.WriteString("\nThe under-dimensioned FIFO lost messages exactly where the analysis\npredicted overflow; every latency and backlog stayed within its bound.\n")
		} else {
			b.WriteString("\nNo observation exceeded its compositional bound: the network-level\nanalysis dominates holistic simulation, across buses and gateways.\n")
		}
	} else {
		b.WriteString("\nWARNING: observations exceeded the compositional bounds.\n")
	}
	return b.String()
}
