package sensitivity

import (
	"fmt"
	"time"

	"repro/internal/can"
	"repro/internal/kmatrix"
	"repro/internal/whatif"
)

// Extensibility answers the paper's Section 2 question "Can more ECUs
// (and how many) be connected without overloading the bus?": the largest
// number of clones of a template message that can be added — at
// identifiers above the existing ones, the usual place for late
// additions — while every message (old and new) still meets its
// deadline at the given operating jitter scale.
//
// Adding messages only ever hurts, so the count is found by bisection.
func Extensibility(k *kmatrix.KMatrix, template kmatrix.Message, cfg SweepConfig,
	operatingScale float64, max int) (int, error) {

	if err := template.Validate(); err != nil {
		return 0, err
	}
	if max < 1 {
		return 0, fmt.Errorf("sensitivity: max %d must be positive", max)
	}
	// Place additions above every existing identifier.
	var base can.ID
	for _, m := range k.Messages {
		if m.ID > base {
			base = m.ID
		}
	}
	base++
	format := can.Standard11Bit
	if template.Extended {
		format = can.Extended29Bit
	}
	if base+can.ID(max) > format.MaxID() {
		return 0, fmt.Errorf("sensitivity: %d additions exceed the %s identifier space", max, format)
	}

	addition := func(i int) kmatrix.Message {
		add := template
		add.Name = fmt.Sprintf("%s_ext%03d", template.Name, i+1)
		add.ID = base + can.ID(i)
		add.Jitter = scaleDuration(operatingScale, add.Period)
		return add
	}
	// The additions rank below every existing priority, so each
	// bisection probe re-analyses only the additions themselves; the
	// existing matrix at the operating point is shared across probes
	// through the session's private store.
	sess := whatif.NewBusSession(k, cfg.Analysis, whatif.Options{Workers: 1})
	okWith := func(n int) (bool, error) {
		sess.Reset()
		changes := make([]whatif.Change, 0, n+1)
		changes = append(changes, whatif.ScaleJitter{Scale: operatingScale, OnlyUnknown: cfg.OnlyUnknown})
		for i := 0; i < n; i++ {
			changes = append(changes, whatif.AddMessage{Row: addition(i)})
		}
		if err := sess.Apply(changes...); err != nil {
			return false, err
		}
		rep, err := sess.Analyze()
		if err != nil {
			return false, err
		}
		return rep.AllSchedulable(), nil
	}

	ok0, err := okWith(0)
	if err != nil {
		return 0, err
	}
	if !ok0 {
		return -1, nil
	}
	okMax, err := okWith(max)
	if err != nil {
		return 0, err
	}
	if okMax {
		return max, nil
	}
	lo, hi := 0, max // lo feasible, hi infeasible
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		ok, err := okWith(mid)
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

// scaleDuration returns scale*d, rounded down to whole nanoseconds.
func scaleDuration(scale float64, d time.Duration) time.Duration {
	return time.Duration(scale * float64(d))
}
