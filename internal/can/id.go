package can

import "fmt"

// IDFormat selects between the two CAN identifier formats.
type IDFormat int

const (
	// Standard11Bit is the CAN 2.0A base frame format.
	Standard11Bit IDFormat = iota
	// Extended29Bit is the CAN 2.0B extended frame format.
	Extended29Bit
)

// String returns the conventional name of the format.
func (f IDFormat) String() string {
	switch f {
	case Standard11Bit:
		return "standard"
	case Extended29Bit:
		return "extended"
	default:
		return fmt.Sprintf("IDFormat(%d)", int(f))
	}
}

// MaxID returns the largest identifier representable in the format.
func (f IDFormat) MaxID() ID {
	if f == Extended29Bit {
		return 1<<29 - 1
	}
	return 1<<11 - 1
}

// ID is a CAN identifier. On the wire a dominant (0) bit wins arbitration,
// so a numerically smaller ID has higher priority.
type ID uint32

// Identifier is an ID in its format, what arbitration tells frames
// apart by: a standard 0x1 and an extended 0x1 are distinct
// identifiers on the wire, so a duplicate check keys by Identifier,
// never by ID alone.
type Identifier struct {
	ID     ID
	Format IDFormat
}

// Valid reports whether the identifier fits the given format.
func (id ID) Valid(f IDFormat) bool {
	return id <= f.MaxID()
}

// HigherPriorityThan reports whether id wins arbitration against other.
// Mixed-format comparison follows the wire behaviour: the first 11 bits
// decide first; if the base IDs tie, a standard frame's RTR/SRR and IDE
// bits are dominant earlier, so the standard frame wins.
func (id ID) HigherPriorityThan(other ID, f, otherF IDFormat) bool {
	base, otherBase := id.base11(f), other.base11(otherF)
	if base != otherBase {
		return base < otherBase
	}
	if f != otherF {
		return f == Standard11Bit
	}
	return id < other
}

// base11 extracts the 11 most significant identifier bits as sent on the
// wire, which lead arbitration for both formats.
func (id ID) base11(f IDFormat) uint32 {
	if f == Extended29Bit {
		return uint32(id) >> 18
	}
	return uint32(id)
}

// String renders the ID in the conventional hexadecimal form.
func (id ID) String() string {
	return fmt.Sprintf("0x%X", uint32(id))
}
