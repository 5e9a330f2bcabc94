package optimize

import (
	"fmt"
	"math"

	"repro/internal/kmatrix"
	"repro/internal/parallel"
	"repro/internal/rta"
)

// Objectives is the two-dimensional fitness of a priority assignment.
// Both coordinates are minimised.
type Objectives struct {
	// Misses is the total number of deadline misses accumulated over all
	// evaluation scales — the primary goal of the paper's optimization
	// (zero loss at 25% jitter).
	Misses int
	// NegRobustness is the negated robustness margin. Robustness is the
	// mean normalised deadline slack at the highest evaluation scale,
	// where unschedulable messages score -1. The optimizer was
	// "configured to favor robust configurations over sensitive ones".
	NegRobustness float64
}

// Dominates reports strict Pareto dominance (minimisation).
func (o Objectives) Dominates(p Objectives) bool {
	if o.Misses > p.Misses || o.NegRobustness > p.NegRobustness {
		return false
	}
	return o.Misses < p.Misses || o.NegRobustness < p.NegRobustness
}

// Better reports lexicographic preference — misses first, then
// robustness — used to pick the single reported solution from the final
// Pareto set.
func (o Objectives) Better(p Objectives) bool {
	if o.Misses != p.Misses {
		return o.Misses < p.Misses
	}
	return o.NegRobustness < p.NegRobustness
}

// String renders the objectives for reports.
func (o Objectives) String() string {
	return fmt.Sprintf("misses=%d robustness=%.3f", o.Misses, -o.NegRobustness)
}

// evaluator computes objectives for permutations of one matrix under one
// analysis configuration.
type evaluator struct {
	k      *kmatrix.KMatrix
	cfg    rta.Config
	scales []float64
	// robustScale is the jitter scale at which robustness is measured.
	robustScale float64
	// onlyUnknown mirrors SweepConfig.OnlyUnknown.
	onlyUnknown bool
}

// evalAll scores a set of individuals on a worker pool. Every
// evaluation reads only the shared matrix and configuration, so the
// fan-out is free of order-dependent state and the scores are
// independent of the worker count.
func (e *evaluator) evalAll(inds []*individual, workers int) error {
	errs := make([]error, len(inds))
	parallel.For(len(inds), workers, func(_, i int) {
		inds[i].obj, errs[i] = e.evalAssignment(fromOrder(e.k, inds[i].order))
	})
	return parallel.FirstError(errs)
}

// evalAssignment scores an assignment by analysing a clone of the
// matrix under it at every scale. Incremental sessions ran no faster
// here and allocated more (BenchmarkAblationOptimizers/spea2; DESIGN.md,
// "Consumers").
func (e *evaluator) evalAssignment(a Assignment) (Objectives, error) {
	applied := Apply(e.k, a)
	var obj Objectives
	robustDone := false
	for _, scale := range e.scales {
		rep, err := e.analyzeAt(applied, scale)
		if err != nil {
			return obj, err
		}
		obj.Misses += rep.MissCount()
		if scale == e.robustScale {
			obj.NegRobustness = -robustness(rep)
			robustDone = true
		}
	}
	if !robustDone {
		rep, err := e.analyzeAt(applied, e.robustScale)
		if err != nil {
			return obj, err
		}
		obj.NegRobustness = -robustness(rep)
	}
	return obj, nil
}

func (e *evaluator) analyzeAt(applied *kmatrix.KMatrix, scale float64) (*rta.Report, error) {
	scaled := applied.WithJitterScale(scale, e.onlyUnknown)
	return rta.Analyze(scaled.ToRTA(), e.cfg)
}

// robustness is the mean normalised slack, clamped to [-1, 1] per
// message so single pathological messages cannot dominate the score.
func robustness(rep *rta.Report) float64 {
	if len(rep.Results) == 0 {
		return 0
	}
	var sum float64
	for _, r := range rep.Results {
		if r.WCRT == rta.Unschedulable || r.Deadline <= 0 {
			sum -= 1
			continue
		}
		s := float64(r.Slack()) / float64(r.Deadline)
		sum += math.Max(-1, math.Min(1, s))
	}
	return sum / float64(len(rep.Results))
}
