package tdma

import (
	"fmt"
	"math"
	"time"

	"repro/internal/can"
	"repro/internal/eventmodel"
)

// Unschedulable is the sentinel for unbounded responses (arrival rate
// exceeds the slot rate).
const Unschedulable time.Duration = math.MaxInt64

// Slot is one entry of the cyclic schedule.
type Slot struct {
	// Owner is the message name served in this slot.
	Owner string
	// Length is the slot duration; the owner's frame must fit.
	Length time.Duration
}

// Schedule is the static cycle: slots in transmission order.
type Schedule struct {
	// Slots lists the cycle's slots in order.
	Slots []Slot
}

// Cycle returns the schedule's total cycle length.
func (s Schedule) Cycle() time.Duration {
	var sum time.Duration
	for _, sl := range s.Slots {
		sum += sl.Length
	}
	return sum
}

// slotFor returns the slot of the named message.
func (s Schedule) slotFor(name string) (Slot, bool) {
	for _, sl := range s.Slots {
		if sl.Owner == name {
			return sl, true
		}
	}
	return Slot{}, false
}

// Message is one time-triggered message stream.
type Message struct {
	// Name identifies the message and links it to its slot.
	Name string
	// Frame is the transmitted frame (its ID does not arbitrate here;
	// only the length matters).
	Frame can.Frame
	// Event is the arrival model of instances queued for the slot.
	Event eventmodel.Model
	// Deadline, when positive, overrides the implicit deadline (the
	// period).
	Deadline time.Duration
}

// Result is the per-message outcome.
type Result struct {
	// Message echoes the input.
	Message Message
	// C is the transmission time inside the slot.
	C time.Duration
	// WCRT bounds the arrival-to-delivery response, Unschedulable when
	// the arrival rate exceeds the slot rate.
	WCRT time.Duration
	// BacklogInstances is the queue position that produced the worst
	// response.
	BacklogInstances int
	// Deadline is the deadline judged against.
	Deadline time.Duration
	// Schedulable reports WCRT <= Deadline.
	Schedulable bool
}

// OutputModel derives the event model of the message at its receivers:
// the arrival model with the slot-wait variation added as jitter. The
// minimum delay is the bare transmission C (the instance arrives just as
// its slot opens); the maximum is WCRT.
func (r Result) OutputModel() eventmodel.Model {
	if r.WCRT == Unschedulable {
		return eventmodel.Model{
			Period:   r.Message.Event.Period,
			Jitter:   eventmodel.Unbounded,
			DMin:     r.C,
			Sporadic: r.Message.Event.Sporadic,
		}
	}
	return r.Message.Event.OutputModel(r.WCRT-r.C, r.C)
}

// Report is the outcome of a TDMA analysis.
type Report struct {
	// Results holds one entry per message in input order.
	Results []Result
	// Cycle echoes the schedule cycle.
	Cycle time.Duration
	// Utilization is the fraction of the cycle carrying scheduled slots
	// that are actually owned by analysed messages.
	Utilization float64
}

// ByName returns the result of the named message, or nil.
func (r *Report) ByName(name string) *Result {
	for i := range r.Results {
		if r.Results[i].Message.Name == name {
			return &r.Results[i]
		}
	}
	return nil
}

// maxBacklog caps the backlog search; a backlog this deep means the
// arrival rate effectively exceeds the slot rate.
const maxBacklog = 1 << 20

// Analyze computes worst-case responses for all messages under the
// schedule.
func Analyze(msgs []Message, sched Schedule, bus can.Bus, stuffing can.Stuffing) (*Report, error) {
	if err := bus.Validate(); err != nil {
		return nil, err
	}
	cycle := sched.Cycle()
	if cycle <= 0 {
		return nil, fmt.Errorf("tdma: empty schedule")
	}
	owners := map[string]int{}
	for _, sl := range sched.Slots {
		if sl.Length <= 0 {
			return nil, fmt.Errorf("tdma: slot for %q has non-positive length %v", sl.Owner, sl.Length)
		}
		owners[sl.Owner]++
		if owners[sl.Owner] > 1 {
			return nil, fmt.Errorf("tdma: message %q owns multiple slots; not supported", sl.Owner)
		}
	}

	rep := &Report{Results: make([]Result, len(msgs)), Cycle: cycle}
	seen := map[string]bool{}
	var used time.Duration
	for i, m := range msgs {
		if m.Name == "" {
			return nil, fmt.Errorf("tdma: message without name")
		}
		if seen[m.Name] {
			return nil, fmt.Errorf("tdma: duplicate message %q", m.Name)
		}
		seen[m.Name] = true
		if err := m.Frame.Validate(); err != nil {
			return nil, fmt.Errorf("tdma: message %s: %w", m.Name, err)
		}
		if err := m.Event.Validate(); err != nil {
			return nil, fmt.Errorf("tdma: message %s: %w", m.Name, err)
		}
		slot, ok := sched.slotFor(m.Name)
		if !ok {
			return nil, fmt.Errorf("tdma: message %s has no slot", m.Name)
		}
		c := bus.FrameTime(m.Frame, stuffing)
		if c > slot.Length {
			return nil, fmt.Errorf("tdma: message %s frame time %v exceeds slot length %v",
				m.Name, c, slot.Length)
		}
		used += slot.Length
		rep.Results[i] = analyzeOne(m, c, cycle)
	}
	rep.Utilization = float64(used) / float64(cycle)
	return rep, nil
}

// analyzeOne maximises R_n = n*cycle + C - delta-(n) over the backlog
// depth n. Each deeper instance adds a cycle and subtracts the spacing
// delta-(n+1) - delta-(n); once that spacing reaches the cycle the
// backlog cannot grow further and R_n is non-increasing from there on.
// delta- is a maximum of lines in n, so its spacing never decreases:
// R_n rises strictly from n = 2 up to n0, the first n > 1 whose spacing
// reaches the cycle, and the worst response is max(R_1, R_n0), the
// smaller depth on a tie. A stream with no such n0 <= maxBacklog
// (arrivals outpace the slot) is unschedulable.
func analyzeOne(m Message, c, cycle time.Duration) Result {
	res := Result{Message: m, C: c, Deadline: m.Event.Period}
	if m.Deadline > 0 {
		res.Deadline = m.Deadline
	}
	n0, ok := backlogDepth(m.Event, c, cycle)
	if !ok {
		res.WCRT = Unschedulable
		res.Schedulable = false
		return res
	}
	res.WCRT, res.BacklogInstances = cycle+c, 1
	if r := time.Duration(n0)*cycle + c - m.Event.DeltaMin(n0); r > res.WCRT {
		res.WCRT, res.BacklogInstances = r, n0
	}
	res.Schedulable = res.WCRT <= res.Deadline
	return res
}

// backlogDepth returns n0, the first n in (1, maxBacklog] with
// delta-(n+1) - delta-(n) >= cycle, by a galloping search over n = 2,
// 4, 8, ... followed by a binary search inside the last doubling; the
// spacing is non-decreasing in n, so both searches are exact. It never
// evaluates a depth whose products n*P, n*dmin or n*cycle leave int64:
// if n0 would lie beyond that, the stream reports no depth, as one
// whose backlog never drains. For periods and cycles below 2^43 ns that
// limit is maxBacklog itself.
func backlogDepth(ev eventmodel.Model, c, cycle time.Duration) (int, bool) {
	limit := maxBacklog
	if l := math.MaxInt64 / ev.Period; l < time.Duration(limit) {
		limit = int(l)
	}
	if l := (math.MaxInt64 - c) / cycle; l < time.Duration(limit) {
		limit = int(l)
	}
	if limit < 2 {
		return 0, false
	}
	reaches := func(n int) bool {
		return ev.DeltaMin(n+1)-ev.DeltaMin(n) >= cycle
	}
	// Once the gallop stops, lo does not reach the cycle (n = 1 does not
	// count) and hi does.
	lo, hi := 1, 2
	for !reaches(hi) {
		if hi == limit {
			return 0, false
		}
		lo, hi = hi, min(2*hi, limit)
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if reaches(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, true
}
