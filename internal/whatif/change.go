package whatif

import (
	"fmt"
	"time"

	"repro/internal/can"
	"repro/internal/kmatrix"
)

// Change is one typed edit of a communication matrix — the unit in
// which a supplier revision or an optimizer move is expressed. Changes
// are applied in order by BusSession.Apply; validation beyond name
// resolution is deferred to the analysis, so an incremental run fails
// exactly where a from-scratch run of the edited matrix would.
type Change interface {
	apply(rows []kmatrix.Message) ([]kmatrix.Message, error)
	// String renders the change in the change-script syntax (script.go).
	String() string
}

// ChangeSet is an ordered batch of changes.
type ChangeSet []Change

// rowByName returns the index of the named row, or an error.
func rowByName(rows []kmatrix.Message, name string) (int, error) {
	for i := range rows {
		if rows[i].Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("whatif: unknown message %q", name)
}

// SetJitter replaces one message's send jitter — the canonical supplier
// revision ("the measured jitter of EngineTorque1 is 1.2ms, not 200us").
type SetJitter struct {
	Message string
	Jitter  time.Duration
}

func (c SetJitter) apply(rows []kmatrix.Message) ([]kmatrix.Message, error) {
	i, err := rowByName(rows, c.Message)
	if err != nil {
		return nil, err
	}
	rows[i].Jitter = c.Jitter
	return rows, nil
}

func (c SetJitter) String() string { return fmt.Sprintf("set-jitter %s %v", c.Message, c.Jitter) }

// SetPeriod replaces one message's sending period.
type SetPeriod struct {
	Message string
	Period  time.Duration
}

func (c SetPeriod) apply(rows []kmatrix.Message) ([]kmatrix.Message, error) {
	i, err := rowByName(rows, c.Message)
	if err != nil {
		return nil, err
	}
	rows[i].Period = c.Period
	return rows, nil
}

func (c SetPeriod) String() string { return fmt.Sprintf("set-period %s %v", c.Message, c.Period) }

// SetID moves one message to a different CAN identifier (priority).
type SetID struct {
	Message string
	ID      can.ID
}

func (c SetID) apply(rows []kmatrix.Message) ([]kmatrix.Message, error) {
	i, err := rowByName(rows, c.Message)
	if err != nil {
		return nil, err
	}
	rows[i].ID = c.ID
	return rows, nil
}

func (c SetID) String() string { return fmt.Sprintf("set-id %s %s", c.Message, c.ID) }

// SetDLC replaces one message's payload length.
type SetDLC struct {
	Message string
	DLC     int
}

func (c SetDLC) apply(rows []kmatrix.Message) ([]kmatrix.Message, error) {
	i, err := rowByName(rows, c.Message)
	if err != nil {
		return nil, err
	}
	rows[i].DLC = c.DLC
	return rows, nil
}

func (c SetDLC) String() string { return fmt.Sprintf("set-dlc %s %d", c.Message, c.DLC) }

// SetDeadline replaces one message's explicit deadline (zero restores
// the configured deadline model).
type SetDeadline struct {
	Message  string
	Deadline time.Duration
}

func (c SetDeadline) apply(rows []kmatrix.Message) ([]kmatrix.Message, error) {
	i, err := rowByName(rows, c.Message)
	if err != nil {
		return nil, err
	}
	rows[i].Deadline = c.Deadline
	return rows, nil
}

func (c SetDeadline) String() string {
	return fmt.Sprintf("set-deadline %s %v", c.Message, c.Deadline)
}

// ScaleJitter sets every send jitter to Scale times the message period
// — the paper's what-if sweep, expressed as a change. When OnlyUnknown
// is set, rows with supplier-provided jitters keep them. The jitter
// arithmetic matches kmatrix.WithJitterScale exactly.
type ScaleJitter struct {
	Scale       float64
	OnlyUnknown bool
}

func (c ScaleJitter) apply(rows []kmatrix.Message) ([]kmatrix.Message, error) {
	for i := range rows {
		if c.OnlyUnknown && rows[i].JitterKnown {
			continue
		}
		rows[i].ScaleJitter(c.Scale)
	}
	return rows, nil
}

func (c ScaleJitter) String() string {
	if c.OnlyUnknown {
		return fmt.Sprintf("scale-jitter %g only-unknown", c.Scale)
	}
	return fmt.Sprintf("scale-jitter %g", c.Scale)
}

// AddMessage appends a new row — a late-integration addition.
type AddMessage struct {
	Row kmatrix.Message
}

func (c AddMessage) apply(rows []kmatrix.Message) ([]kmatrix.Message, error) {
	if err := c.Row.Validate(); err != nil {
		return nil, fmt.Errorf("whatif: add: %w", err)
	}
	row := c.Row
	row.Receivers = append([]string(nil), c.Row.Receivers...)
	return append(rows, row), nil
}

// String renders deadline= and extended= only when set, so an add
// without them prints as it always has.
func (c AddMessage) String() string {
	s := fmt.Sprintf("add %s id=%s dlc=%d period=%v jitter=%v sender=%s",
		c.Row.Name, c.Row.ID, c.Row.DLC, c.Row.Period, c.Row.Jitter, c.Row.Sender)
	if c.Row.Deadline != 0 {
		s += fmt.Sprintf(" deadline=%v", c.Row.Deadline)
	}
	if c.Row.Extended {
		s += " extended=true"
	}
	return s
}

// RemoveMessage deletes a row.
type RemoveMessage struct {
	Message string
}

func (c RemoveMessage) apply(rows []kmatrix.Message) ([]kmatrix.Message, error) {
	i, err := rowByName(rows, c.Message)
	if err != nil {
		return nil, err
	}
	return append(rows[:i], rows[i+1:]...), nil
}

func (c RemoveMessage) String() string { return fmt.Sprintf("remove %s", c.Message) }
