package whatif

import (
	"fmt"
	"time"

	"repro/internal/can"
	"repro/internal/core"
	"repro/internal/eventmodel"
	"repro/internal/gateway"
	"repro/internal/rta"
	"repro/internal/tdma"
)

// SystemChange is one typed edit of a multi-resource system. As with
// bus-level Changes, only addressing is validated at apply time; model
// validation is deferred to the analysis so incremental and
// from-scratch runs fail identically.
type SystemChange interface {
	applySystem(s *SystemSession) error
	String() string
}

func (s *SystemSession) bus(name string) (*core.BusInfo, error) {
	for i := range s.buses {
		if s.buses[i].Name == name {
			return &s.buses[i], nil
		}
	}
	return nil, fmt.Errorf("whatif: unknown bus %q", name)
}

func (s *SystemSession) busMessage(resource, message string) (*rta.Message, error) {
	b, err := s.bus(resource)
	if err != nil {
		return nil, err
	}
	for i := range b.Messages {
		if b.Messages[i].Name == message {
			return &b.Messages[i], nil
		}
	}
	return nil, fmt.Errorf("whatif: bus %q has no message %q", resource, message)
}

func (s *SystemSession) tdmaRes(name string) (*core.TDMAInfo, error) {
	for i := range s.tdmas {
		if s.tdmas[i].Name == name {
			return &s.tdmas[i], nil
		}
	}
	return nil, fmt.Errorf("whatif: unknown TDMA bus %q", name)
}

func (s *SystemSession) gwRes(name string) (*core.GatewayInfo, error) {
	for i := range s.gws {
		if s.gws[i].Name == name {
			return &s.gws[i], nil
		}
	}
	return nil, fmt.Errorf("whatif: unknown gateway %q", name)
}

// SetEventJitter edits the activation jitter of a bus message, ECU task
// or TDMA message — the supplier's revised send-jitter guarantee.
type SetEventJitter struct {
	Resource, Element string
	Jitter            time.Duration
}

func (c SetEventJitter) applySystem(s *SystemSession) error {
	m, err := s.pristineModel(c.Resource, c.Element)
	if err != nil {
		return err
	}
	m.Jitter = c.Jitter
	return nil
}

func (c SetEventJitter) String() string {
	return fmt.Sprintf("set-event-jitter %s/%s %v", c.Resource, c.Element, c.Jitter)
}

// SetEventPeriod edits the activation period of a bus message, ECU task
// or TDMA message.
type SetEventPeriod struct {
	Resource, Element string
	Period            time.Duration
}

func (c SetEventPeriod) applySystem(s *SystemSession) error {
	m, err := s.pristineModel(c.Resource, c.Element)
	if err != nil {
		return err
	}
	m.Period = c.Period
	return nil
}

func (c SetEventPeriod) String() string {
	return fmt.Sprintf("set-event-period %s/%s %v", c.Resource, c.Element, c.Period)
}

// SetFrameID moves a CAN bus message to a different identifier
// (priority).
type SetFrameID struct {
	Resource, Message string
	ID                can.ID
}

func (c SetFrameID) applySystem(s *SystemSession) error {
	m, err := s.busMessage(c.Resource, c.Message)
	if err != nil {
		return err
	}
	m.Frame.ID = c.ID
	return nil
}

func (c SetFrameID) String() string {
	return fmt.Sprintf("set-frame-id %s/%s %s", c.Resource, c.Message, c.ID)
}

// SetFrameDLC edits a CAN bus message's payload length.
type SetFrameDLC struct {
	Resource, Message string
	DLC               int
}

func (c SetFrameDLC) applySystem(s *SystemSession) error {
	m, err := s.busMessage(c.Resource, c.Message)
	if err != nil {
		return err
	}
	m.Frame.DLC = c.DLC
	return nil
}

func (c SetFrameDLC) String() string {
	return fmt.Sprintf("set-frame-dlc %s/%s %d", c.Resource, c.Message, c.DLC)
}

// AddBusMessage adds a message to a CAN bus.
type AddBusMessage struct {
	Resource string
	Message  rta.Message
}

func (c AddBusMessage) applySystem(s *SystemSession) error {
	b, err := s.bus(c.Resource)
	if err != nil {
		return err
	}
	if err := c.Message.Validate(); err != nil {
		return fmt.Errorf("whatif: add: %w", err)
	}
	b.Messages = append(b.Messages, c.Message)
	return nil
}

func (c AddBusMessage) String() string {
	return fmt.Sprintf("add-bus-message %s/%s", c.Resource, c.Message.Name)
}

// RemoveBusMessage removes a message from a CAN bus. Messages that are
// link or path endpoints cannot be removed (the from-scratch system
// would not build).
type RemoveBusMessage struct {
	Resource, Message string
}

func (c RemoveBusMessage) applySystem(s *SystemSession) error {
	b, err := s.bus(c.Resource)
	if err != nil {
		return err
	}
	ref := core.ElementRef{Resource: c.Resource, Element: c.Message}
	for _, l := range s.links {
		if l.From == ref || l.To == ref {
			return fmt.Errorf("whatif: %s is a link endpoint", ref)
		}
	}
	for _, p := range s.paths {
		for _, el := range p.Elements {
			if el == ref {
				return fmt.Errorf("whatif: %s is on path %q", ref, p.Name)
			}
		}
	}
	for i := range b.Messages {
		if b.Messages[i].Name == c.Message {
			b.Messages = append(b.Messages[:i], b.Messages[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("whatif: bus %q has no message %q", c.Resource, c.Message)
}

func (c RemoveBusMessage) String() string {
	return fmt.Sprintf("remove-bus-message %s/%s", c.Resource, c.Message)
}

// RetuneGateway replaces a gateway's forwarding configuration (service
// model, batch, queue policy and depth) while keeping its flows — the
// paper's "gatewaying strategies provide many parameters that can be
// tuned". The configuration's Name is overwritten with the resource
// name, mirroring core.AddGateway.
type RetuneGateway struct {
	Resource string
	Config   gateway.Config
}

func (c RetuneGateway) applySystem(s *SystemSession) error {
	g, err := s.gwRes(c.Resource)
	if err != nil {
		return err
	}
	cfg := c.Config
	cfg.Name = c.Resource
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("whatif: %w", err)
	}
	g.Config = cfg
	return nil
}

func (c RetuneGateway) String() string {
	policy := "fifo"
	if c.Config.Policy == gateway.PerMessageBuffer {
		policy = "buffer"
	}
	return fmt.Sprintf("retune-gateway %s period=%v jitter=%v batch=%d policy=%s depth=%d", c.Resource,
		c.Config.Service.Period, c.Config.Service.Jitter, c.Config.Batch, policy, c.Config.QueueDepth)
}

// SetTDMASlot resizes the slot owned by a message in a TDMA schedule.
type SetTDMASlot struct {
	Resource, Owner string
	Length          time.Duration
}

func (c SetTDMASlot) applySystem(s *SystemSession) error {
	t, err := s.tdmaRes(c.Resource)
	if err != nil {
		return err
	}
	slots := append([]tdma.Slot(nil), t.Schedule.Slots...)
	for i := range slots {
		if slots[i].Owner == c.Owner {
			slots[i].Length = c.Length
			t.Schedule = tdma.Schedule{Slots: slots}
			return nil
		}
	}
	return fmt.Errorf("whatif: TDMA bus %q has no slot owned by %q", c.Resource, c.Owner)
}

func (c SetTDMASlot) String() string {
	return fmt.Sprintf("set-tdma-slot %s/%s %v", c.Resource, c.Owner, c.Length)
}

// SetTDMASchedule replaces a TDMA bus's whole static schedule
// (reordering and re-slotting in one change).
type SetTDMASchedule struct {
	Resource string
	Schedule tdma.Schedule
}

func (c SetTDMASchedule) applySystem(s *SystemSession) error {
	t, err := s.tdmaRes(c.Resource)
	if err != nil {
		return err
	}
	t.Schedule = tdma.Schedule{Slots: append([]tdma.Slot(nil), c.Schedule.Slots...)}
	return nil
}

func (c SetTDMASchedule) String() string {
	return fmt.Sprintf("set-tdma-schedule %s (%d slots)", c.Resource, len(c.Schedule.Slots))
}

// pristineModel resolves the editable activation model of an element in
// the pristine state (gateway flow arrivals are derived, not editable).
// Buses are resolved last, so an unknown resource reads as an unknown
// bus; the scans before it build no error values, which keeps an edit
// of a bus message allocation-free.
func (s *SystemSession) pristineModel(resource, element string) (*eventmodel.Model, error) {
	for _, e := range s.ecus {
		if e.Name != resource {
			continue
		}
		for i := range e.Tasks {
			if e.Tasks[i].Name == element {
				return &e.Tasks[i].Event, nil
			}
		}
		return nil, fmt.Errorf("whatif: ECU %q has no task %q", resource, element)
	}
	for _, t := range s.tdmas {
		if t.Name != resource {
			continue
		}
		for i := range t.Messages {
			if t.Messages[i].Name == element {
				return &t.Messages[i].Event, nil
			}
		}
		return nil, fmt.Errorf("whatif: TDMA bus %q has no message %q", resource, element)
	}
	for _, g := range s.gws {
		if g.Name == resource {
			return nil, fmt.Errorf("whatif: gateway flow %s/%s arrivals are derived by propagation; edit the source element", resource, element)
		}
	}
	m, err := s.busMessage(resource, element)
	if err != nil {
		return nil, err
	}
	return &m.Event, nil
}
