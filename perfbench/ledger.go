package main

import (
	"sort"
	"time"

	"repro/internal/obs"
)

// spanTotals folds spans the program already records into per-name
// totals of wall time, self time and count. A span's self time is its
// duration minus the part of its interval that its children cover.
type spanTotals struct {
	wall, self map[string]time.Duration
	count      map[string]int
}

func newSpanTotals() *spanTotals {
	return &spanTotals{
		wall:  map[string]time.Duration{},
		self:  map[string]time.Duration{},
		count: map[string]int{},
	}
}

// add folds one trace's spans in.
func (t *spanTotals) add(spans []obs.Span) {
	children := make(map[uint64][]obs.Span, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range spans {
		t.wall[s.Name] += s.Dur
		t.self[s.Name] += s.Dur - covered(s, children[s.ID])
		t.count[s.Name]++
	}
}

// covered returns how much of parent's interval the children cover,
// counting overlapping children once.
func covered(parent obs.Span, kids []obs.Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	lo, hi := parent.Start, parent.Start.Add(parent.Dur)
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.Start.Add(k.Dur)
		if a.Before(lo) {
			a = lo
		}
		if b.After(hi) {
			b = hi
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var sum time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			sum += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		sum += cur.b.Sub(cur.a)
	}
	return sum
}

// stageNames are the per-scenario pipeline stages campaign records.
var stageNames = []string{"build", "analyze", "simulate", "perturb"}

// scenarioLedger writes the campaign pipeline metrics: mean stage self
// time per scenario and the pool's busy ratio over the timed wall time.
// It returns the share of scenario span time the four stages account
// for, so a run can show the breakdown is complete.
func (t *spanTotals) scenarioLedger(m map[string]float64, wall time.Duration, slots int) float64 {
	n := t.count["scenario"]
	if n == 0 {
		return 0
	}
	var stages time.Duration
	for _, s := range stageNames {
		stages += t.self[s]
		m["campaign."+s+"_ms"] = ms(t.self[s]) / float64(n)
	}
	m["parallel.busy_ratio"] = ratio(float64(t.wall["scenario"]), float64(wall)*float64(slots))
	return ratio(float64(stages), float64(t.wall["scenario"]))
}
