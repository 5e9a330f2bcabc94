package netsim

import (
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/rta"
	"repro/internal/tdma"
)

// Validation folds simulated runs against the compositional bounds of
// the analysis they simulate: traced path latencies against
// SimulatedPathBound, per-message responses against WCRTs, gateway
// backlogs against the queueing bound, and losses against the loss
// prediction. It is the one cross-validation of the repository: campaign
// scenarios, shard workers, the service's simulate route and the netsim
// experiment all fold through it.
type Validation struct {
	// Paths holds one check per traced path, in topology order.
	Paths []PathCheck
	// Gateways holds one check per gateway, in topology order.
	Gateways []GatewayCheck
	// Runs counts folded runs; Frames counts the frames they sent.
	Runs, Frames int
	// Violations counts observations beyond their bounds: path
	// latencies, per-message responses, gateway backlogs and
	// unpredicted losses.
	Violations int
	// Losses counts instances lost inside gateways.
	Losses int

	a *core.Analysis
}

// PathCheck is one traced path's bound and what the runs observed.
type PathCheck struct {
	Name string
	// Bound sums the analytic delays of the simulated hops; Bounded is
	// false when a hop is unbounded, and the path is then traced but
	// never checked.
	Bound   time.Duration
	Bounded bool
	// Observed is the largest latency of any run.
	Observed           time.Duration
	Completed, Dropped int
	Violations         int
}

// GatewayCheck is one gateway's bounds and what the runs observed.
type GatewayCheck struct {
	Name         string
	Policy       gateway.Policy
	QueueDepth   int // 0 = unbounded
	BacklogBound int
	// LossPredicted reports whether the analysis predicted overflow or
	// overwrite loss.
	LossPredicted      bool
	MaxBacklog, Losses int
	Violations         int
}

// NewValidation prepares the checks of topo, the topology FromSystem
// built from sys, against a, the analysis of sys.
func NewValidation(sys *core.System, a *core.Analysis, topo *Topology) *Validation {
	v := &Validation{
		Paths:    make([]PathCheck, len(topo.Paths)),
		Gateways: make([]GatewayCheck, len(topo.Gateways)),
		a:        a,
	}
	for i, ps := range topo.Paths {
		b, ok := SimulatedPathBound(sys, a, ps.Name)
		v.Paths[i] = PathCheck{Name: ps.Name, Bound: b, Bounded: ok}
	}
	for i, g := range topo.Gateways {
		rep := a.GatewayReports[g.Name]
		predicted := rep.Overflow
		for _, fr := range rep.Flows {
			predicted = predicted || fr.OverwriteLoss
		}
		v.Gateways[i] = GatewayCheck{
			Name: g.Name, Policy: g.Policy, QueueDepth: g.QueueDepth,
			BacklogBound: rep.Backlog, LossPredicted: predicted,
		}
	}
	return v
}

// Add folds one run of the topology.
func (v *Validation) Add(res *Result) {
	v.Runs++
	for i := range v.Paths {
		pc, pr := &v.Paths[i], &res.Paths[i]
		pc.Completed += pr.Completed
		pc.Dropped += pr.Dropped
		pc.Observed = max(pc.Observed, pr.MaxLatency)
		if pc.Bounded && pr.MaxLatency > pc.Bound {
			pc.Violations++
			v.Violations++
		}
	}
	for _, br := range res.Buses {
		rep := v.a.BusReports[br.Name]
		for _, s := range br.Stats {
			v.Frames += s.Sent
			r := rep.ByName(s.Name)
			if r != nil && r.WCRT != rta.Unschedulable && s.Sent > 0 && s.MaxResponse > r.WCRT {
				v.Violations++
			}
		}
	}
	for _, br := range res.TDMABuses {
		rep := v.a.TDMAReports[br.Name]
		for _, s := range br.Stats {
			v.Frames += s.Sent
			r := rep.ByName(s.Name)
			if r != nil && r.WCRT != tdma.Unschedulable && s.Sent > 0 && s.MaxResponse > r.WCRT {
				v.Violations++
			}
		}
	}
	for i := range v.Gateways {
		gc, gr := &v.Gateways[i], &res.Gateways[i]
		gc.MaxBacklog = max(gc.MaxBacklog, gr.MaxBacklog)
		// Backlog saturates to MaxInt on overloaded gateways, so the
		// bound check stays valid there.
		if gr.MaxBacklog > gc.BacklogBound {
			gc.Violations++
			v.Violations++
		}
		lost := gr.Lost()
		gc.Losses += lost
		v.Losses += lost
		if lost > 0 && !gc.LossPredicted {
			gc.Violations++
			v.Violations++
		}
	}
}

// MinMarginPct is the tightest path margin, 100*(bound-observed)/bound
// over bounded paths that completed an instance; NaN when there is none.
func (v *Validation) MinMarginPct() float64 {
	m := math.NaN()
	for _, pc := range v.Paths {
		if !pc.Bounded || pc.Completed == 0 {
			continue
		}
		margin := 100 * float64(pc.Bound-pc.Observed) / float64(pc.Bound)
		if math.IsNaN(m) || margin < m {
			m = margin
		}
	}
	return m
}

// LossPredicted reports whether the analysis predicted loss at any
// gateway.
func (v *Validation) LossPredicted() bool {
	for _, gc := range v.Gateways {
		if gc.LossPredicted {
			return true
		}
	}
	return false
}
