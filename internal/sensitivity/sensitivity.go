package sensitivity

import (
	"fmt"
	"math"
	"time"

	"repro/internal/kmatrix"
	"repro/internal/parallel"
	"repro/internal/rta"
)

// DefaultScales is the paper's sweep grid: 0% to 60% of the message
// period in 5% steps (the x-axis of Figures 4 and 5).
func DefaultScales() []float64 {
	scales := make([]float64, 0, 13)
	for s := 0.0; s <= 0.601; s += 0.05 {
		scales = append(scales, s)
	}
	return scales
}

// SweepConfig parameterises a jitter sweep.
type SweepConfig struct {
	// Scales are the jitter levels as fractions of each message's
	// period. Nil selects DefaultScales.
	Scales []float64
	// OnlyUnknown, when set, leaves supplier-provided jitters untouched
	// and sweeps only the assumed ones.
	OnlyUnknown bool
	// Analysis is the response-time configuration (stuffing, errors,
	// deadline model). Its Bus field is overwritten from the matrix.
	Analysis rta.Config
	// Workers bounds the worker pool of the sweep (and of the derived
	// tolerance/extensibility searches). Zero or negative selects
	// GOMAXPROCS. Results are identical for every worker count.
	Workers int
}

func (c SweepConfig) scales() []float64 {
	if len(c.Scales) > 0 {
		return c.Scales
	}
	return DefaultScales()
}

// Point is one sweep sample of one message.
type Point struct {
	// Scale is the jitter level (fraction of the period).
	Scale float64
	// WCRT is the worst-case response time measured from the nominal
	// activation instant, i.e. including the activation jitter
	// (rta.Unschedulable if unbounded).
	WCRT time.Duration
	// Delay is the worst-case delay measured from the actual queueing of
	// the message (WCRT minus the activation jitter): the y-axis of the
	// paper's Figure 4. It stays flat for messages that are robust
	// against the jitters of the rest of the bus.
	Delay time.Duration
	// Deadline is the deadline in force at this level (it shrinks with
	// jitter under the min-re-arrival model).
	Deadline time.Duration
	// Schedulable reports WCRT <= Deadline.
	Schedulable bool
}

// Curve is the response-time-versus-jitter curve of one message —
// one line of Figure 4.
type Curve struct {
	// Message is the message name.
	Message string
	// Period is the message period (jitter scales refer to it).
	Period time.Duration
	// Priority is the message's rank at scale 0.
	Priority int
	// Points holds one sample per sweep scale.
	Points []Point
}

// WCRTAt returns the response time at the given scale, or Unschedulable
// if the scale was not sampled.
func (c *Curve) WCRTAt(scale float64) time.Duration {
	for _, p := range c.Points {
		if p.Scale == scale {
			return p.WCRT
		}
	}
	return rta.Unschedulable
}

// DelayAt returns the from-arrival delay at the given scale, or
// Unschedulable if the scale was not sampled.
func (c *Curve) DelayAt(scale float64) time.Duration {
	for _, p := range c.Points {
		if p.Scale == scale {
			return p.Delay
		}
	}
	return rta.Unschedulable
}

// Growth returns the relative growth of the from-arrival delay over the
// sweep: (D_last - D_first) / D_first. This is the Figure 4 sensitivity
// metric: robust messages have near-zero growth even though their
// nominal-instant response trivially grows with their own jitter.
// Unschedulable samples report +Inf.
func (c *Curve) Growth() float64 {
	if len(c.Points) == 0 {
		return 0
	}
	first, last := c.Points[0].Delay, c.Points[len(c.Points)-1].Delay
	if first == rta.Unschedulable || last == rta.Unschedulable || first <= 0 {
		return math.Inf(1)
	}
	return float64(last-first) / float64(first)
}

// Result is the outcome of a sweep over a complete matrix.
type Result struct {
	// Scales echoes the sweep grid.
	Scales []float64
	// Curves holds one curve per message, ordered by priority at scale 0.
	Curves []Curve
	// Reports holds the full analysis report per scale, aligned with
	// Scales, for loss counting.
	Reports []*rta.Report
}

// CurveByName returns the curve of the named message, or nil.
func (r *Result) CurveByName(name string) *Curve {
	for i := range r.Curves {
		if r.Curves[i].Message == name {
			return &r.Curves[i]
		}
	}
	return nil
}

// Sweep runs the jitter sweep over the matrix. The scales are analysed
// concurrently on a worker pool (cfg.Workers): each scale is an
// independently scaled clone put through a full analysis, and the
// result is assembled in scale order afterwards, so the outcome is
// identical to the serial sweep. Scaling every jitter changes every
// per-message memo key, so an incremental session would find nothing
// to reuse (DESIGN.md, "Consumers").
func Sweep(k *kmatrix.KMatrix, cfg SweepConfig) (*Result, error) {
	scales := cfg.scales()
	res := &Result{Scales: scales, Reports: make([]*rta.Report, len(scales))}

	analysis := cfg.Analysis
	analysis.Bus = k.Bus()

	errs := make([]error, len(scales))
	parallel.For(len(scales), cfg.Workers, func(_, si int) {
		scaled := k.WithJitterScale(scales[si], cfg.OnlyUnknown)
		rep, err := rta.Analyze(scaled.ToRTA(), analysis)
		if err != nil {
			errs[si] = fmt.Errorf("sensitivity: scale %.2f: %w", scales[si], err)
			return
		}
		res.Reports[si] = rep
	})
	if err := parallel.FirstError(errs); err != nil {
		return nil, err
	}

	curveIdx := map[string]int{}
	for si, scale := range scales {
		rep := res.Reports[si]
		if si == 0 {
			res.Curves = make([]Curve, len(rep.Results))
			for i, r := range rep.Results {
				res.Curves[i] = Curve{
					Message:  r.Message.Name,
					Period:   r.Message.Event.Period,
					Priority: r.Priority,
					Points:   make([]Point, 0, len(scales)),
				}
				curveIdx[r.Message.Name] = i
			}
		}
		for _, r := range rep.Results {
			idx, ok := curveIdx[r.Message.Name]
			if !ok {
				return nil, fmt.Errorf("sensitivity: message %q appeared mid-sweep", r.Message.Name)
			}
			delay := r.WCRT
			if delay != rta.Unschedulable {
				delay -= r.Message.Event.Jitter
			}
			res.Curves[idx].Points = append(res.Curves[idx].Points, Point{
				Scale:       scale,
				WCRT:        r.WCRT,
				Delay:       delay,
				Deadline:    r.Deadline,
				Schedulable: r.Schedulable,
			})
		}
	}
	return res, nil
}
