package can

import "fmt"

// Overheads of the CAN data frame in bits. The stuffable region runs from
// the start-of-frame bit through the CRC sequence; the tail (CRC delimiter,
// ACK slot and delimiter, end-of-frame, interframe space) is sent without
// stuffing.
const (
	standardOverheadBits  = 47 // total non-payload bits, standard frame
	extendedOverheadBits  = 67 // total non-payload bits, extended frame
	standardStuffableBits = 34 // non-payload bits subject to stuffing, standard
	extendedStuffableBits = 54 // non-payload bits subject to stuffing, extended

	// ErrorFrameBits is the worst-case bus occupation of error signalling:
	// up to 6+6 error-flag bits, 8 delimiter bits and the 3-bit interframe
	// space preceding the retransmission, plus resynchronisation slack.
	// The value 31 is the bound used by Tindell and Burns (1994) and all
	// follow-up CAN error analyses.
	ErrorFrameBits = 31

	// MaxPayload is the largest CAN 2.0 payload in bytes.
	MaxPayload = 8
)

// Frame describes a CAN data frame as carried in a communication matrix:
// identifier, format and payload length. It carries no payload bytes —
// timing analysis needs only the length.
type Frame struct {
	// ID is the arbitration identifier (doubles as the priority).
	ID ID
	// Format selects standard or extended identifiers.
	Format IDFormat
	// DLC is the payload length in bytes, 0 through 8.
	DLC int
}

// Validate reports whether the frame is well formed.
func (f Frame) Validate() error {
	if f.DLC < 0 || f.DLC > MaxPayload {
		return fmt.Errorf("can: DLC %d outside [0,%d]", f.DLC, MaxPayload)
	}
	if f.Format != Standard11Bit && f.Format != Extended29Bit {
		return fmt.Errorf("can: unknown identifier format %d", int(f.Format))
	}
	if !f.ID.Valid(f.Format) {
		return fmt.Errorf("can: ID %s does not fit %s format", f.ID, f.Format)
	}
	return nil
}

// Identifier returns the frame's ID in its format.
func (f Frame) Identifier() Identifier {
	return Identifier{ID: f.ID, Format: f.Format}
}

// BitsNominal returns the frame length in bits assuming no stuff bits are
// inserted — the best case on the wire.
func (f Frame) BitsNominal() int {
	if f.Format == Extended29Bit {
		return extendedOverheadBits + 8*f.DLC
	}
	return standardOverheadBits + 8*f.DLC
}

// MaxStuffBits returns the worst-case number of stuff bits the transmitter
// can insert: one per four bits of the stuffable region after the first.
func (f Frame) MaxStuffBits() int {
	stuffable := standardStuffableBits
	if f.Format == Extended29Bit {
		stuffable = extendedStuffableBits
	}
	return (stuffable + 8*f.DLC - 1) / 4
}

// BitsWorstCase returns the frame length in bits with worst-case stuffing.
func (f Frame) BitsWorstCase() int {
	return f.BitsNominal() + f.MaxStuffBits()
}

// Bits returns the frame length under the given stuffing assumption.
func (f Frame) Bits(s Stuffing) int {
	if s == StuffingWorstCase {
		return f.BitsWorstCase()
	}
	return f.BitsNominal()
}

// Stuffing selects the bit-stuffing assumption used when converting frames
// to wire time. Worst-case stuffing is the sound choice for analysis;
// nominal lengths exist for ablation studies and optimistic load models.
type Stuffing int

const (
	// StuffingWorstCase charges every frame its maximal stuffed length.
	StuffingWorstCase Stuffing = iota
	// StuffingNominal charges every frame its unstuffed length.
	StuffingNominal
)

// String names the stuffing assumption.
func (s Stuffing) String() string {
	if s == StuffingNominal {
		return "nominal"
	}
	return "worst-case"
}
