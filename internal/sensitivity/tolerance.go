package sensitivity

import (
	"fmt"
	"sort"

	"repro/internal/kmatrix"
	"repro/internal/parallel"
	"repro/internal/rta"
)

// MessageJitterTolerance searches the largest jitter — as a fraction of
// the message's own period, in [0, hi] — that the named message may
// exhibit while every message on the bus still meets its deadline. All
// other messages sit at the operating scale. This is the per-message
// sensitivity figure of Racu et al. that the paper turns into supplier
// requirements: "jitter constraints for the most critical (or sensitive)
// messages can be formulated as requirements for ECU suppliers".
//
// Schedulability is monotone in the jitter, so bisection applies. A
// negative result means the bus is already unschedulable at the
// operating point with zero jitter on the message.
func MessageJitterTolerance(k *kmatrix.KMatrix, message string, cfg SweepConfig,
	operatingScale, hi, eps float64) (float64, error) {

	if k.ByName(message) == nil {
		return 0, fmt.Errorf("sensitivity: unknown message %q", message)
	}
	analysis := cfg.Analysis
	analysis.Bus = k.Bus()

	// Each probe analyses a fresh clone. An incremental session reuses
	// only the prefix above the probed message, and measured on
	// BenchmarkToleranceTable it was slower and allocated more than the
	// clone (DESIGN.md, "Consumers").
	okAt := func(scale float64) (bool, error) {
		trial := k.WithJitterScale(operatingScale, cfg.OnlyUnknown)
		m := trial.ByName(message)
		m.Jitter = scaleDuration(scale, m.Period)
		rep, err := rta.Analyze(trial.ToRTA(), analysis)
		if err != nil {
			return false, err
		}
		return rep.AllSchedulable(), nil
	}

	ok0, err := okAt(0)
	if err != nil {
		return 0, err
	}
	if !ok0 {
		return -1, nil
	}
	okHi, err := okAt(hi)
	if err != nil {
		return 0, err
	}
	if okHi {
		return hi, nil
	}
	lo := 0.0
	for hi-lo > eps {
		mid := (lo + hi) / 2
		ok, err := okAt(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// Tolerance is one row of a tolerance table.
type Tolerance struct {
	// Message names the message.
	Message string
	// MaxJitterScale is the tolerated jitter as a fraction of the
	// message's period (negative: infeasible at the operating point).
	MaxJitterScale float64
}

// ToleranceTable computes the jitter tolerance of every message at the
// operating scale, sorted from most critical (lowest tolerance) to most
// relaxed. The per-message bisections are independent and run on a
// worker pool (cfg.Workers); the table is identical for every worker
// count.
func ToleranceTable(k *kmatrix.KMatrix, cfg SweepConfig, operatingScale, hi, eps float64) ([]Tolerance, error) {
	out := make([]Tolerance, len(k.Messages))
	errs := make([]error, len(k.Messages))
	parallel.For(len(k.Messages), cfg.Workers, func(_, i int) {
		tol, err := MessageJitterTolerance(k, k.Messages[i].Name, cfg, operatingScale, hi, eps)
		if err != nil {
			errs[i] = err
			return
		}
		out[i] = Tolerance{Message: k.Messages[i].Name, MaxJitterScale: tol}
	})
	if err := parallel.FirstError(errs); err != nil {
		return nil, err
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].MaxJitterScale != out[j].MaxJitterScale {
			return out[i].MaxJitterScale < out[j].MaxJitterScale
		}
		return out[i].Message < out[j].Message
	})
	return out, nil
}
