package sensitivity

import (
	"math"
	"sort"

	"repro/internal/kmatrix"
	"repro/internal/rta"
)

// LossPoint is one sample of the paper's Figure 5: the fraction of
// messages that miss their deadline (and can thus be lost) at a given
// jitter level.
type LossPoint struct {
	// Scale is the jitter level as a fraction of each period.
	Scale float64
	// MissRatio is the fraction of messages missing their deadline.
	MissRatio float64
	// Missed lists the names of the missing messages, sorted.
	Missed []string
}

// LossCurve derives the message-loss curve from a sweep result.
func (r *Result) LossCurve() []LossPoint {
	out := make([]LossPoint, len(r.Reports))
	for i, rep := range r.Reports {
		p := LossPoint{Scale: r.Scales[i], MissRatio: rep.MissRatio()}
		for _, res := range rep.Results {
			if !res.Schedulable {
				p.Missed = append(p.Missed, res.Message.Name)
			}
		}
		sort.Strings(p.Missed)
		out[i] = p
	}
	return out
}

// Loss runs a sweep and returns only the loss curve.
func Loss(k *kmatrix.KMatrix, cfg SweepConfig) ([]LossPoint, error) {
	res, err := Sweep(k, cfg)
	if err != nil {
		return nil, err
	}
	return res.LossCurve(), nil
}

// FirstLossScale returns the smallest sampled scale with non-zero loss,
// or +Inf if no sampled scale loses messages.
func FirstLossScale(curve []LossPoint) float64 {
	for _, p := range curve {
		if p.MissRatio > 0 {
			return p.Scale
		}
	}
	return math.Inf(1)
}

// MaxTolerableScale searches the largest jitter scale in [0, hi] at
// which the named message still meets its deadline, to within eps.
// It returns a negative value when the message already misses at scale 0.
// Response times are monotone in the sweep scale, so bisection applies;
// this is the "maximum tolerable jitter" sensitivity metric of Racu et
// al. applied to the sweep dimension.
func MaxTolerableScale(k *kmatrix.KMatrix, message string, cfg SweepConfig, hi, eps float64) (float64, error) {
	analysis := cfg.Analysis
	analysis.Bus = k.Bus()

	okAt := func(scale float64) (bool, error) {
		scaled := k.WithJitterScale(scale, cfg.OnlyUnknown)
		rep, err := rta.Analyze(scaled.ToRTA(), analysis)
		if err != nil {
			return false, err
		}
		res := rep.ByName(message)
		if res == nil {
			return false, errUnknownMessage(message)
		}
		return res.Schedulable, nil
	}

	return bisect(okAt, hi, eps)
}

// bisect searches the largest x in [0, hi] with ok(x), to within eps,
// for a predicate that holds up to some threshold and fails beyond it.
// It returns -1 when ok(0) fails and hi when ok(hi) holds.
func bisect(ok func(float64) (bool, error), hi, eps float64) (float64, error) {
	ok0, err := ok(0)
	if err != nil {
		return 0, err
	}
	if !ok0 {
		return -1, nil
	}
	okHi, err := ok(hi)
	if err != nil {
		return 0, err
	}
	if okHi {
		return hi, nil
	}
	lo := 0.0
	for hi-lo > eps {
		mid := (lo + hi) / 2
		okMid, err := ok(mid)
		if err != nil {
			return 0, err
		}
		if okMid {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}

type errUnknownMessage string

func (e errUnknownMessage) Error() string {
	return "sensitivity: unknown message " + string(e)
}
