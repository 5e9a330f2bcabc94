package eventmodel

import (
	"fmt"
	"math"
	"time"
)

// Unbounded is the sentinel returned by DeltaMax when no finite upper
// bound on the span of n events exists (sporadic streams).
const Unbounded time.Duration = math.MaxInt64

// Model is a standard event model: a periodic or sporadic event stream
// with jitter and an optional minimum-distance (burst) bound.
//
// The zero Model is invalid; construct models with the helpers below or
// fill Period explicitly.
type Model struct {
	// Period is the nominal recurrence of the stream. For sporadic
	// streams it is the minimum recurrence between nominal instants.
	Period time.Duration
	// Jitter bounds the deviation of each event from its nominal
	// periodic instant. Jitter may exceed Period, in which case events
	// arrive in bursts limited by DMin.
	Jitter time.Duration
	// DMin is an explicit lower bound on the distance of consecutive
	// events. Zero means "no bound beyond what Period and Jitter imply".
	DMin time.Duration
	// Sporadic marks streams with no guaranteed arrivals: EtaMinus is
	// zero and DeltaMax is Unbounded.
	Sporadic bool
}

// Periodic returns a strictly periodic event model.
func Periodic(p time.Duration) Model {
	return Model{Period: p}
}

// PeriodicJitter returns a periodic event model with jitter.
func PeriodicJitter(p, j time.Duration) Model {
	return Model{Period: p, Jitter: j}
}

// PeriodicBurst returns a periodic event model with a jitter exceeding
// the period and an explicit intra-burst minimum distance.
func PeriodicBurst(p, j, dmin time.Duration) Model {
	return Model{Period: p, Jitter: j, DMin: dmin}
}

// SporadicModel returns a sporadic event model with the given minimum
// interarrival time.
func SporadicModel(minInterarrival time.Duration) Model {
	return Model{Period: minInterarrival, Sporadic: true}
}

// SporadicBurst returns a sporadic event model that can burst: nominal
// minimum recurrence p, deviation j, intra-burst distance dmin.
func SporadicBurst(p, j, dmin time.Duration) Model {
	return Model{Period: p, Jitter: j, DMin: dmin, Sporadic: true}
}

// Validate reports whether the model parameters are consistent.
func (m Model) Validate() error {
	if m.Period <= 0 {
		return fmt.Errorf("eventmodel: period %v must be positive", m.Period)
	}
	if m.Jitter < 0 {
		return fmt.Errorf("eventmodel: jitter %v must be non-negative", m.Jitter)
	}
	if m.DMin < 0 {
		return fmt.Errorf("eventmodel: dmin %v must be non-negative", m.DMin)
	}
	if m.DMin > m.Period {
		return fmt.Errorf("eventmodel: dmin %v exceeds period %v", m.DMin, m.Period)
	}
	if m.Jitter >= m.Period && m.DMin == 0 {
		return fmt.Errorf("eventmodel: jitter %v >= period %v requires a dmin bound", m.Jitter, m.Period)
	}
	return nil
}

// EffectiveDMin returns the tightest lower bound on the distance of
// consecutive events that the model implies: the explicit DMin, or the
// spacing P-J that period and jitter leave, whichever is larger.
func (m Model) EffectiveDMin() time.Duration {
	d := m.Period - m.Jitter
	if d < 0 {
		d = 0
	}
	if m.DMin > d {
		d = m.DMin
	}
	return d
}

// Bursty reports whether the jitter allows back-to-back arrivals closer
// than the period, i.e. whether the stream shows transient bursts.
func (m Model) Bursty() bool {
	return m.Jitter >= m.Period
}

// String renders the model in the compact SymTA/S notation.
func (m Model) String() string {
	kind := "periodic"
	if m.Sporadic {
		kind = "sporadic"
	}
	if m.DMin > 0 {
		return fmt.Sprintf("%s(P=%v, J=%v, d=%v)", kind, m.Period, m.Jitter, m.DMin)
	}
	if m.Jitter > 0 {
		return fmt.Sprintf("%s(P=%v, J=%v)", kind, m.Period, m.Jitter)
	}
	return fmt.Sprintf("%s(P=%v)", kind, m.Period)
}

// OutputModel derives the event model at the output of a task or message
// that is activated by m: the period is preserved, the jitter grows by
// the element's delay variation, and the minimum distance can shrink
// down to the resource-imposed spacing.
//
// responseJitter is the delay variation measured from the activation
// instant (worst minus best from-arrival delay). Callers holding
// responses measured from the nominal instant — which already include
// the activation jitter — must subtract that jitter first, or it would
// be counted twice.
//
// minSpacing is the smallest possible distance between two consecutive
// completions on the resource (e.g. the best-case transmission time on a
// shared bus); it floors the derived DMin.
func (m Model) OutputModel(responseJitter, minSpacing time.Duration) Model {
	if responseJitter < 0 {
		responseJitter = 0
	}
	out := m
	out.Jitter = satAdd(m.Jitter, responseJitter)
	d := m.EffectiveDMin() - responseJitter
	if d < minSpacing {
		d = minSpacing
	}
	if d > out.Period {
		d = out.Period
	}
	out.DMin = d
	// A burst output without a distance bound would be invalid; the
	// minSpacing floor guarantees DMin > 0 whenever spacing is positive.
	return out
}

// satAdd adds two durations, saturating at Unbounded instead of
// overflowing.
func satAdd(a, b time.Duration) time.Duration {
	if a > Unbounded-b {
		return Unbounded
	}
	return a + b
}
