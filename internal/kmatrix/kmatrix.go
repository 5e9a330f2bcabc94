package kmatrix

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/can"
	"repro/internal/eventmodel"
	"repro/internal/rta"
)

// Message is one row of the communication matrix.
type Message struct {
	// Name is the unique message name (e.g. "EngineTorque1").
	Name string
	// ID is the CAN identifier; it doubles as the arbitration priority.
	ID can.ID
	// Extended marks 29-bit identifiers.
	Extended bool
	// DLC is the payload length in bytes (0-8).
	DLC int
	// Period is the nominal sending period.
	Period time.Duration
	// Jitter is the send jitter. It is meaningful only when JitterKnown;
	// otherwise it records the current working assumption (possibly 0).
	Jitter time.Duration
	// JitterKnown marks jitters backed by supplier data sheets, as
	// opposed to assumptions made for a what-if analysis.
	JitterKnown bool
	// Deadline is an explicit deadline; zero derives one from the
	// analysis configuration's deadline model.
	Deadline time.Duration
	// Sender is the transmitting node.
	Sender string
	// Receivers are the consuming nodes.
	Receivers []string
}

// Format returns the CAN identifier format of the message.
func (m Message) Format() can.IDFormat {
	if m.Extended {
		return can.Extended29Bit
	}
	return can.Standard11Bit
}

// Frame returns the wire-level frame of the message.
func (m Message) Frame() can.Frame {
	return can.Frame{ID: m.ID, Format: m.Format(), DLC: m.DLC}
}

// Validate reports whether the row is well formed.
func (m Message) Validate() error {
	if m.Name == "" {
		return fmt.Errorf("kmatrix: message with ID %s has no name", m.ID)
	}
	if err := m.Frame().Validate(); err != nil {
		return fmt.Errorf("kmatrix: message %s: %w", m.Name, err)
	}
	if m.Period <= 0 {
		return fmt.Errorf("kmatrix: message %s: period %v must be positive", m.Name, m.Period)
	}
	if m.Jitter < 0 {
		return fmt.Errorf("kmatrix: message %s: negative jitter %v", m.Name, m.Jitter)
	}
	if m.Deadline < 0 {
		return fmt.Errorf("kmatrix: message %s: negative deadline %v", m.Name, m.Deadline)
	}
	if m.Sender == "" {
		return fmt.Errorf("kmatrix: message %s: no sender", m.Name)
	}
	return nil
}

// ScaleJitter sets the send jitter to scale times the period — the
// paper's what-if assumption for one row. Both the sweep clone path
// (WithJitterScale) and the incremental ChangeSet path
// (whatif.ScaleJitter) go through this one formula, keeping the two
// bit-identical.
func (m *Message) ScaleJitter(scale float64) {
	m.Jitter = time.Duration(scale * float64(m.Period))
}

// EventModel returns the activation model of the message: periodic with
// the recorded (or assumed) jitter, capped to stay well formed when the
// jitter reaches the period.
func (m Message) EventModel() eventmodel.Model {
	ev := eventmodel.PeriodicJitter(m.Period, m.Jitter)
	if ev.Bursty() {
		// Back-to-back queueings are still separated by the minimum
		// distance a sender can reproduce; one frame time is a floor,
		// but without bus knowledge here we use a conservative 1us.
		ev.DMin = time.Microsecond
	}
	return ev
}

// ToRTA converts the row into an analysable message.
func (m Message) ToRTA() rta.Message {
	return rta.Message{
		Name:     m.Name,
		Frame:    m.Frame(),
		Event:    m.EventModel(),
		Deadline: m.Deadline,
	}
}

// KMatrix is the complete communication matrix of one bus.
type KMatrix struct {
	// BusName names the bus (e.g. "powertrain").
	BusName string
	// BitRate is the bus speed in bits per second.
	BitRate int
	// Messages holds all rows.
	Messages []Message
}

// Bus returns the bus description.
func (k *KMatrix) Bus() can.Bus {
	return can.Bus{Name: k.BusName, BitRate: k.BitRate}
}

// Validate checks all rows plus matrix-level invariants: unique names and
// unique identifiers, an identifier being an ID in its format.
func (k *KMatrix) Validate() error {
	if err := k.Bus().Validate(); err != nil {
		return err
	}
	names := make(map[string]bool, len(k.Messages))
	ids := make(map[can.Identifier]string, len(k.Messages))
	for _, m := range k.Messages {
		if err := m.Validate(); err != nil {
			return err
		}
		if names[m.Name] {
			return fmt.Errorf("kmatrix: duplicate message name %q", m.Name)
		}
		names[m.Name] = true
		id := m.Frame().Identifier()
		if prev, ok := ids[id]; ok {
			return fmt.Errorf("kmatrix: messages %q and %q share %s ID %s", prev, m.Name, id.Format, id.ID)
		}
		ids[id] = m.Name
	}
	return nil
}

// Clone returns a deep copy.
func (k *KMatrix) Clone() *KMatrix {
	out := &KMatrix{BusName: k.BusName, BitRate: k.BitRate}
	out.Messages = make([]Message, len(k.Messages))
	copy(out.Messages, k.Messages)
	for i := range out.Messages {
		if rcv := out.Messages[i].Receivers; rcv != nil {
			out.Messages[i].Receivers = append([]string(nil), rcv...)
		}
	}
	return out
}

// ByName returns the row with the given name, or nil.
func (k *KMatrix) ByName(name string) *Message {
	for i := range k.Messages {
		if k.Messages[i].Name == name {
			return &k.Messages[i]
		}
	}
	return nil
}

// Nodes returns the sorted set of all senders and receivers.
func (k *KMatrix) Nodes() []string {
	set := map[string]bool{}
	for _, m := range k.Messages {
		set[m.Sender] = true
		for _, r := range m.Receivers {
			set[r] = true
		}
	}
	nodes := make([]string, 0, len(set))
	for n := range set {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	return nodes
}

// SentBy returns the rows transmitted by the given node.
func (k *KMatrix) SentBy(node string) []Message {
	var out []Message
	for _, m := range k.Messages {
		if m.Sender == node {
			out = append(out, m)
		}
	}
	return out
}

// UnknownJitterCount returns the number of rows whose jitter is an
// assumption rather than supplier data.
func (k *KMatrix) UnknownJitterCount() int {
	n := 0
	for _, m := range k.Messages {
		if !m.JitterKnown {
			n++
		}
	}
	return n
}

// ToRTA converts all rows for analysis.
func (k *KMatrix) ToRTA() []rta.Message {
	out := make([]rta.Message, len(k.Messages))
	for i, m := range k.Messages {
		out[i] = m.ToRTA()
	}
	return out
}

// WithJitterScale returns a copy in which send jitters are replaced by
// scale*period — the paper's what-if sweep. When onlyUnknown is true,
// rows with supplier-provided jitters keep them.
func (k *KMatrix) WithJitterScale(scale float64, onlyUnknown bool) *KMatrix {
	out := k.Clone()
	for i := range out.Messages {
		m := &out.Messages[i]
		if onlyUnknown && m.JitterKnown {
			continue
		}
		m.ScaleJitter(scale)
	}
	return out
}
