package can

import (
	"testing"
	"testing/quick"
	"time"
)

func TestFrameBitsKnownValues(t *testing.T) {
	tests := []struct {
		name      string
		frame     Frame
		nominal   int
		worstCase int
	}{
		{"standard 0 bytes", Frame{ID: 0x100, Format: Standard11Bit, DLC: 0}, 47, 47 + 8},
		{"standard 1 byte", Frame{ID: 0x100, Format: Standard11Bit, DLC: 1}, 55, 55 + 10},
		{"standard 8 bytes", Frame{ID: 0x100, Format: Standard11Bit, DLC: 8}, 111, 135},
		{"extended 0 bytes", Frame{ID: 0x100, Format: Extended29Bit, DLC: 0}, 67, 67 + 13},
		{"extended 8 bytes", Frame{ID: 0x100, Format: Extended29Bit, DLC: 8}, 131, 131 + 29},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.frame.BitsNominal(); got != tt.nominal {
				t.Errorf("BitsNominal() = %d, want %d", got, tt.nominal)
			}
			if got := tt.frame.BitsWorstCase(); got != tt.worstCase {
				t.Errorf("BitsWorstCase() = %d, want %d", got, tt.worstCase)
			}
		})
	}
}

func TestFrameBitsSelector(t *testing.T) {
	f := Frame{ID: 1, Format: Standard11Bit, DLC: 8}
	if f.Bits(StuffingWorstCase) != f.BitsWorstCase() {
		t.Error("Bits(StuffingWorstCase) disagrees with BitsWorstCase")
	}
	if f.Bits(StuffingNominal) != f.BitsNominal() {
		t.Error("Bits(StuffingNominal) disagrees with BitsNominal")
	}
}

func TestFrameValidate(t *testing.T) {
	tests := []struct {
		name    string
		frame   Frame
		wantErr bool
	}{
		{"ok standard", Frame{ID: 0x7FF, Format: Standard11Bit, DLC: 8}, false},
		{"ok extended", Frame{ID: 0x1FFFFFFF, Format: Extended29Bit, DLC: 0}, false},
		{"DLC too large", Frame{ID: 1, Format: Standard11Bit, DLC: 9}, true},
		{"DLC negative", Frame{ID: 1, Format: Standard11Bit, DLC: -1}, true},
		{"standard ID overflow", Frame{ID: 0x800, Format: Standard11Bit, DLC: 0}, true},
		{"extended ID overflow", Frame{ID: 0x20000000, Format: Extended29Bit, DLC: 0}, true},
		{"unknown format", Frame{ID: 1, Format: 2, DLC: 0}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.frame.Validate(); (err != nil) != tt.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestBitsMonotoneInDLC(t *testing.T) {
	for _, format := range []IDFormat{Standard11Bit, Extended29Bit} {
		prevNom, prevWC := 0, 0
		for dlc := 0; dlc <= MaxPayload; dlc++ {
			f := Frame{ID: 1, Format: format, DLC: dlc}
			if f.BitsNominal() <= prevNom {
				t.Errorf("%s DLC %d: nominal bits not strictly increasing", format, dlc)
			}
			if f.BitsWorstCase() <= prevWC {
				t.Errorf("%s DLC %d: worst-case bits not strictly increasing", format, dlc)
			}
			if f.BitsWorstCase() < f.BitsNominal() {
				t.Errorf("%s DLC %d: worst case below nominal", format, dlc)
			}
			prevNom, prevWC = f.BitsNominal(), f.BitsWorstCase()
		}
	}
}

func TestStuffBitsBound(t *testing.T) {
	// Stuff bits can never exceed a quarter of the stuffable region.
	prop := func(dlcRaw uint8, ext bool) bool {
		dlc := int(dlcRaw % 9)
		format := Standard11Bit
		stuffable := 34
		if ext {
			format = Extended29Bit
			stuffable = 54
		}
		f := Frame{ID: 1, Format: format, DLC: dlc}
		max := f.MaxStuffBits()
		return max >= 0 && max <= (stuffable+8*dlc)/4
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestIDPriority(t *testing.T) {
	tests := []struct {
		name   string
		a, b   ID
		af, bf IDFormat
		aWins  bool
	}{
		{"lower standard wins", 0x100, 0x200, Standard11Bit, Standard11Bit, true},
		{"higher standard loses", 0x200, 0x100, Standard11Bit, Standard11Bit, false},
		{"equal does not win", 0x100, 0x100, Standard11Bit, Standard11Bit, false},
		{"lower extended wins", 0x10000, 0x20000, Extended29Bit, Extended29Bit, true},
		{"standard beats extended on equal base", 0x100, 0x100 << 18, Standard11Bit, Extended29Bit, true},
		{"extended loses to standard on equal base", 0x100 << 18, 0x100, Extended29Bit, Standard11Bit, false},
		{"extended with smaller base beats standard", 0x0FF << 18, 0x100, Extended29Bit, Standard11Bit, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.HigherPriorityThan(tt.b, tt.af, tt.bf); got != tt.aWins {
				t.Errorf("HigherPriorityThan() = %v, want %v", got, tt.aWins)
			}
		})
	}
}

func TestIDPriorityAsymmetric(t *testing.T) {
	// For distinct IDs of the same format exactly one side wins.
	prop := func(aRaw, bRaw uint16) bool {
		a := ID(aRaw % 0x800)
		b := ID(bRaw % 0x800)
		if a == b {
			return !a.HigherPriorityThan(b, Standard11Bit, Standard11Bit)
		}
		x := a.HigherPriorityThan(b, Standard11Bit, Standard11Bit)
		y := b.HigherPriorityThan(a, Standard11Bit, Standard11Bit)
		return x != y
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestBusBitTime(t *testing.T) {
	tests := []struct {
		rate int
		want time.Duration
	}{
		{Rate500k, 2 * time.Microsecond},
		{Rate250k, 4 * time.Microsecond},
		{Rate125k, 8 * time.Microsecond},
		{Rate1M, 1 * time.Microsecond},
	}
	for _, tt := range tests {
		b := Bus{Name: "test", BitRate: tt.rate}
		if got := b.BitTime(); got != tt.want {
			t.Errorf("BitTime(%d) = %v, want %v", tt.rate, got, tt.want)
		}
	}
}

func TestBusFrameTime(t *testing.T) {
	b := Bus{Name: "powertrain", BitRate: Rate500k}
	f := Frame{ID: 0x100, Format: Standard11Bit, DLC: 8}
	// 135 bits at 2us per bit.
	if got, want := b.FrameTime(f, StuffingWorstCase), 270*time.Microsecond; got != want {
		t.Errorf("FrameTime(worst) = %v, want %v", got, want)
	}
	if got, want := b.FrameTime(f, StuffingNominal), 222*time.Microsecond; got != want {
		t.Errorf("FrameTime(nominal) = %v, want %v", got, want)
	}
}

func TestBusValidate(t *testing.T) {
	if err := (Bus{Name: "ok", BitRate: Rate500k}).Validate(); err != nil {
		t.Errorf("valid bus rejected: %v", err)
	}
	if err := (Bus{Name: "bad", BitRate: 0}).Validate(); err == nil {
		t.Error("zero bit rate accepted")
	}
	if err := (Bus{Name: "bad", BitRate: -5}).Validate(); err == nil {
		t.Error("negative bit rate accepted")
	}
}

func TestErrorOverheadTime(t *testing.T) {
	b := Bus{Name: "test", BitRate: Rate500k}
	if got, want := b.ErrorOverheadTime(), 62*time.Microsecond; got != want {
		t.Errorf("ErrorOverheadTime() = %v, want %v", got, want)
	}
}

func TestIDString(t *testing.T) {
	if got := ID(0x1A0).String(); got != "0x1A0" {
		t.Errorf("ID.String() = %q", got)
	}
}

func TestFormatString(t *testing.T) {
	if Standard11Bit.String() != "standard" || Extended29Bit.String() != "extended" {
		t.Error("IDFormat.String() unexpected")
	}
	if IDFormat(7).String() == "" {
		t.Error("unknown format should still render")
	}
}
