package service

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/osek"
	"repro/internal/rta"
	"repro/internal/tdma"
)

// The wire types below are the service's JSON vocabulary. Every slice
// is sorted by name and every duration rendered as a Go duration
// string, so a given analysis state marshals to one byte sequence —
// the property the selftest compares across concurrent clients.

// AnalysisSummary is the wire form of a core.Analysis.
type AnalysisSummary struct {
	Converged   bool             `json:"converged"`
	Iterations  int              `json:"iterations"`
	Schedulable bool             `json:"schedulable"`
	Buses       []BusSummary     `json:"buses,omitempty"`
	ECUs        []ECUSummary     `json:"ecus,omitempty"`
	TDMA        []TDMASummary    `json:"tdma,omitempty"`
	Gateways    []GatewaySummary `json:"gateways,omitempty"`
	Paths       []PathSummary    `json:"paths,omitempty"`
}

// BusSummary condenses one bus report.
type BusSummary struct {
	Name        string  `json:"name"`
	Messages    int     `json:"messages"`
	Utilization float64 `json:"utilization"`
	Misses      int     `json:"misses"`
	WorstWCRT   string  `json:"worst_wcrt"`
	Schedulable bool    `json:"schedulable"`
}

// ECUSummary condenses one ECU report.
type ECUSummary struct {
	Name        string  `json:"name"`
	Tasks       int     `json:"tasks"`
	Utilization float64 `json:"utilization"`
	WorstWCRT   string  `json:"worst_wcrt"`
	Schedulable bool    `json:"schedulable"`
}

// TDMASummary condenses one TDMA bus report.
type TDMASummary struct {
	Name        string  `json:"name"`
	Messages    int     `json:"messages"`
	Utilization float64 `json:"utilization"`
	WorstWCRT   string  `json:"worst_wcrt"`
	Schedulable bool    `json:"schedulable"`
}

// GatewaySummary condenses one gateway queueing report. Backlog and
// RequiredDepth are -1 when the service cannot keep up (unbounded).
type GatewaySummary struct {
	Name          string `json:"name"`
	Delay         string `json:"delay"`
	Backlog       int    `json:"backlog"`
	RequiredDepth int    `json:"required_depth"`
	Overflow      bool   `json:"overflow"`
	OverwriteLoss bool   `json:"overwrite_loss"`
}

// PathSummary is one end-to-end latency bound.
type PathSummary struct {
	Name    string `json:"name"`
	Hops    int    `json:"hops"`
	Latency string `json:"latency"`
}

// unboundedBacklog mirrors gateway.Analyze's MaxInt saturation.
const unboundedBacklog = int(^uint(0) >> 1)

// fmtDuration renders d, mapping the sentinel to "unbounded".
func fmtDuration(d, unbounded time.Duration) string {
	if d == unbounded {
		return "unbounded"
	}
	return d.String()
}

// summarize converts an analysis into its canonical wire form.
func summarize(a *core.Analysis) *AnalysisSummary {
	s := &AnalysisSummary{
		Converged:   a.Converged,
		Iterations:  a.Iterations,
		Schedulable: a.AllSchedulable(),
	}
	for name, rep := range a.BusReports {
		worst := time.Duration(0)
		unbounded := false
		for _, r := range rep.Results {
			if r.WCRT == rta.Unschedulable {
				unbounded = true
			} else if r.WCRT > worst {
				worst = r.WCRT
			}
		}
		w := worst.String()
		if unbounded {
			w = "unbounded"
		}
		s.Buses = append(s.Buses, BusSummary{
			Name: name, Messages: len(rep.Results),
			Utilization: rep.Utilization, Misses: rep.MissCount(),
			WorstWCRT: w, Schedulable: rep.AllSchedulable(),
		})
	}
	for name, rep := range a.ECUReports {
		worst := time.Duration(0)
		unbounded := false
		sched := true
		for _, r := range rep.Results {
			if r.WCRT == osek.Unschedulable {
				unbounded = true
			} else if r.WCRT > worst {
				worst = r.WCRT
			}
			sched = sched && r.Schedulable
		}
		w := worst.String()
		if unbounded {
			w = "unbounded"
		}
		s.ECUs = append(s.ECUs, ECUSummary{
			Name: name, Tasks: len(rep.Results),
			Utilization: rep.Utilization, WorstWCRT: w, Schedulable: sched,
		})
	}
	for name, rep := range a.TDMAReports {
		worst := time.Duration(0)
		unbounded := false
		sched := true
		for _, r := range rep.Results {
			if r.WCRT == tdma.Unschedulable {
				unbounded = true
			} else if r.WCRT > worst {
				worst = r.WCRT
			}
			sched = sched && r.Schedulable
		}
		w := worst.String()
		if unbounded {
			w = "unbounded"
		}
		s.TDMA = append(s.TDMA, TDMASummary{
			Name: name, Messages: len(rep.Results),
			Utilization: rep.Utilization, WorstWCRT: w, Schedulable: sched,
		})
	}
	for name, rep := range a.GatewayReports {
		backlog, depth := rep.Backlog, rep.RequiredDepth
		if backlog == unboundedBacklog {
			backlog, depth = -1, -1
		}
		loss := false
		for _, fr := range rep.Flows {
			loss = loss || fr.OverwriteLoss
		}
		s.Gateways = append(s.Gateways, GatewaySummary{
			Name:  name,
			Delay: fmtDuration(rep.Delay, gateway.Unbounded), Backlog: backlog,
			RequiredDepth: depth, Overflow: rep.Overflow, OverwriteLoss: loss,
		})
	}
	for _, p := range a.Paths {
		s.Paths = append(s.Paths, PathSummary{
			Name: p.Name, Hops: len(p.Hops),
			Latency: fmtDuration(p.Latency, core.Unbounded),
		})
	}
	sort.Slice(s.Buses, func(i, j int) bool { return s.Buses[i].Name < s.Buses[j].Name })
	sort.Slice(s.ECUs, func(i, j int) bool { return s.ECUs[i].Name < s.ECUs[j].Name })
	sort.Slice(s.TDMA, func(i, j int) bool { return s.TDMA[i].Name < s.TDMA[j].Name })
	sort.Slice(s.Gateways, func(i, j int) bool { return s.Gateways[i].Name < s.Gateways[j].Name })
	sort.Slice(s.Paths, func(i, j int) bool { return s.Paths[i].Name < s.Paths[j].Name })
	return s
}

// SessionCreated is the response of POST /v1/sessions.
type SessionCreated struct {
	ID         string  `json:"id"`
	TTLSeconds float64 `json:"ttl_seconds"`
}

// ChangesApplied is the response of POST /v1/sessions/{id}/changes.
type ChangesApplied struct {
	Applied  int              `json:"applied"`
	Changes  []string         `json:"changes"`
	Analysis *AnalysisSummary `json:"analysis"`
}

// SessionInfo is the response of GET /v1/sessions/{id}.
type SessionInfo struct {
	ID         string  `json:"id"`
	ReportHits uint64  `json:"report_hits"`
	Hits       uint64  `json:"hits"`
	Misses     uint64  `json:"misses"`
	HitRatePct float64 `json:"hit_rate_pct"`
}

// SimulateResponse is the response of POST /v1/simulate.
type SimulateResponse struct {
	Runs          int    `json:"runs"`
	Frames        int    `json:"frames"`
	Violations    int    `json:"violations"`
	Losses        int    `json:"losses"`
	LossPredicted bool   `json:"loss_predicted"`
	MinMarginPct  string `json:"min_margin_pct,omitempty"`
}

// CampaignStarted is the response of POST /v1/campaigns.
type CampaignStarted struct {
	ID        string `json:"id"`
	Scenarios int    `json:"scenarios"`
}

// CampaignStatus is the response of GET /v1/campaigns/{id} (and the
// `status` event payload of its SSE stream).
type CampaignStatus struct {
	ID    string `json:"id"`
	State string `json:"state"` // running | done | failed | cancelled
	Done  int    `json:"done"`
	Total int    `json:"total"`
	// Seq is the job's change sequence number: it rises on every state
	// transition and coordinator event, each of which the SSE stream
	// sends as it happens.
	Seq     uint64           `json:"seq"`
	Shards  *ShardStatus     `json:"shards,omitempty"`
	Error   string           `json:"error,omitempty"`
	Summary *CampaignSummary `json:"summary,omitempty"`
}

// ShardStatus reports the fan-out bookkeeping of a distributed
// campaign: shards completed/failed (failures count attempts, retried
// shards still complete) and workers configured/dropped.
type ShardStatus struct {
	Total          int `json:"total"`
	Done           int `json:"done"`
	Failed         int `json:"failed"`
	Workers        int `json:"workers"`
	DroppedWorkers int `json:"dropped_workers"`
}

// CampaignSummary condenses a finished campaign report.
type CampaignSummary struct {
	Corpus               string  `json:"corpus"`
	Scenarios            int     `json:"scenarios"`
	Converged            int     `json:"converged"`
	Schedulable          int     `json:"schedulable"`
	SimRuns              int     `json:"sim_runs"`
	Frames               int     `json:"frames"`
	Violations           int     `json:"violations"`
	Losses               int     `json:"losses"`
	LossOnlyPredicted    bool    `json:"loss_only_predicted"`
	MedianHitRatePct     float64 `json:"median_hit_rate_pct"`
	FlippedUnschedulable int     `json:"flipped_unschedulable"`
	FlippedSchedulable   int     `json:"flipped_schedulable"`
}

// errorBody is the uniform error response: a human-readable message
// plus a machine-readable code (see the Code* constants).
type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// marginString renders a margin percentage, empty when NaN.
func marginString(pct float64) string {
	if math.IsNaN(pct) {
		return ""
	}
	return fmt.Sprintf("%.3f", pct)
}
