package sim

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/can"
	"repro/internal/eventmodel"
)

// ControllerType selects the transmit-buffer organisation of a node.
type ControllerType int

const (
	// FullCAN gives every message its own buffer; the node always offers
	// its highest-priority pending message for arbitration.
	FullCAN ControllerType = iota
	// BasicCAN queues pending messages in software in FIFO order; only
	// the head competes on the bus, so a low-priority message can hold
	// back a high-priority one inside its own node (priority inversion).
	BasicCAN
)

// String names the controller type.
func (c ControllerType) String() string {
	if c == BasicCAN {
		return "basicCAN"
	}
	return "fullCAN"
}

// StuffingMode selects how many stuff bits simulated frames carry.
type StuffingMode int

const (
	// StuffWorst charges every frame its worst-case stuffed length.
	StuffWorst StuffingMode = iota
	// StuffNominal charges unstuffed lengths.
	StuffNominal
	// StuffRandom draws a length uniformly between the two, per
	// transmission — payloads vary in practice.
	StuffRandom
)

// String names the stuffing mode.
func (s StuffingMode) String() string {
	switch s {
	case StuffNominal:
		return "nominal"
	case StuffRandom:
		return "random"
	default:
		return "worst"
	}
}

// MessageSpec describes one simulated message stream.
type MessageSpec struct {
	// Name identifies the message.
	Name string
	// Frame is the wire-level frame (ID doubles as priority).
	Frame can.Frame
	// Event is the activation model; Period and Jitter drive the release
	// process (each instance is delayed by a uniform sample from
	// [0, Jitter]).
	Event eventmodel.Model
	// Node is the sending controller.
	Node string
	// Offset shifts the first nominal release.
	Offset time.Duration
}

// Config parameterises a simulation run.
type Config struct {
	// Bus provides the bit rate. Required.
	Bus can.Bus
	// Duration is the simulated time span (default 2s).
	Duration time.Duration
	// Seed drives jitter and stuffing randomness.
	Seed int64
	// Controller selects the node buffer organisation.
	Controller ControllerType
	// Stuffing selects frame lengths.
	Stuffing StuffingMode
	// Errors lists absolute injection instants; a transmission in flight
	// at such an instant is aborted and retried. The list need not be
	// sorted.
	Errors []time.Duration
	// RecordTrace enables event recording (for Figure 2).
	RecordTrace bool
	// TraceLimit caps recorded events (default 10000).
	TraceLimit int
}

func (c Config) withDefaults() Config {
	if c.Duration == 0 {
		c.Duration = 2 * time.Second
	}
	if c.TraceLimit == 0 {
		c.TraceLimit = 10000
	}
	return c
}

// EventKind tags trace entries.
type EventKind int

const (
	// EventTransmit is a successful frame transmission.
	EventTransmit EventKind = iota
	// EventError is an aborted transmission including error signalling.
	EventError
)

// Event is one trace record.
type Event struct {
	// Kind tags the record.
	Kind EventKind
	// Time is the bus-acquisition instant.
	Time time.Duration
	// Duration is the bus occupation of the record.
	Duration time.Duration
	// Message and Node identify the transmitter.
	Message string
	Node    string
	// Attempt counts transmissions of the same instance (1 = first try).
	Attempt int
}

// Stats aggregates per-message outcomes.
type Stats struct {
	// Name identifies the message.
	Name string
	// Released counts generated instances.
	Released int
	// Sent counts successfully transmitted instances.
	Sent int
	// Lost counts instances overwritten in the sender buffer before
	// transmission — the paper's message-loss event.
	Lost int
	// Retransmissions counts error-induced retries.
	Retransmissions int
	// MaxResponse and MinResponse measure queuing-to-completion delays
	// of sent instances.
	MaxResponse time.Duration
	MinResponse time.Duration
}

// Exceeds reports whether the largest observed response exceeds bound,
// the message's analytic WCRT. It is the one per-message bound check
// of every simulation cross-check, and it needs no guards: an
// unbounded message's WCRT (rta.Unschedulable, tdma.Unschedulable) is
// math.MaxInt64, and a message that sent nothing has MaxResponse 0.
func (s *Stats) Exceeds(bound time.Duration) bool {
	return s.MaxResponse > bound
}

// LossRatio returns lost/released, or 0.
func (s *Stats) LossRatio() float64 {
	if s.Released == 0 {
		return 0
	}
	return float64(s.Lost) / float64(s.Released)
}

// Result is the outcome of a run.
type Result struct {
	// Stats holds one entry per message, in input order.
	Stats []Stats
	// Trace holds recorded events when enabled.
	Trace []Event
	// TraceTruncated reports that recording was enabled but TraceLimit
	// dropped at least one event: the trace is a prefix, not the full
	// run.
	TraceTruncated bool
	// BusBusy is the accumulated bus occupation.
	BusBusy time.Duration
	// Duration echoes the simulated span.
	Duration time.Duration
	// Errors counts injected errors that hit a transmission.
	Errors int
}

// Utilization returns the observed bus utilisation.
func (r *Result) Utilization() float64 {
	if r.Duration == 0 {
		return 0
	}
	return float64(r.BusBusy) / float64(r.Duration)
}

// StatsByName returns the stats of the named message, or nil.
func (r *Result) StatsByName(name string) *Stats {
	for i := range r.Stats {
		if r.Stats[i].Name == name {
			return &r.Stats[i]
		}
	}
	return nil
}

// Run simulates the message set on one bus, stepping its state machine
// from one transmission boundary to the next. Releases are drawn lazily
// at those boundaries, so none is drawn after the last boundary before
// the horizon.
func Run(specs []MessageSpec, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := validate(specs, cfg); err != nil {
		return nil, err
	}
	b := NewBus(specs, cfg, nil)
	for now := time.Duration(0); now < cfg.Duration; {
		b.ReleaseDue(now)
		if w, until, _ := b.Start(now); w >= 0 {
			now = until
			continue
		}
		if now = b.NextRelease(); now < 0 {
			break
		}
	}
	res := b.Result()
	return &res, nil
}

// validate checks the inputs of a run.
func validate(specs []MessageSpec, cfg Config) error {
	if err := cfg.Bus.Validate(); err != nil {
		return err
	}
	if len(specs) == 0 {
		return fmt.Errorf("sim: no messages")
	}
	seen := map[string]bool{}
	ids := map[can.Identifier]string{}
	for _, s := range specs {
		if s.Name == "" {
			return fmt.Errorf("sim: message with ID %s has no name", s.Frame.ID)
		}
		if seen[s.Name] {
			return fmt.Errorf("sim: duplicate message %q", s.Name)
		}
		seen[s.Name] = true
		if err := s.Frame.Validate(); err != nil {
			return fmt.Errorf("sim: message %s: %w", s.Name, err)
		}
		if err := s.Event.Validate(); err != nil {
			return fmt.Errorf("sim: message %s: %w", s.Name, err)
		}
		id := s.Frame.Identifier()
		if prev, dup := ids[id]; dup {
			return fmt.Errorf("sim: messages %q and %q share %s ID %s", prev, s.Name, id.Format, id.ID)
		}
		ids[id] = s.Name
		if s.Node == "" {
			return fmt.Errorf("sim: message %s: no node", s.Name)
		}
		if s.Offset < 0 {
			return fmt.Errorf("sim: message %s: negative offset", s.Name)
		}
	}
	return nil
}

// sortedErrors returns the injection schedule sorted ascending.
func sortedErrors(errors []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), errors...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
