package kmatrix

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzDecodeCSV feeds arbitrary bytes to the K-Matrix reader: it may
// not panic, and every matrix it accepts must re-encode with EncodeCSV
// and decode to an equal matrix. The committed corpus under
// testdata/fuzz holds a generated matrix and the edge rows.
func FuzzDecodeCSV(f *testing.F) {
	var gen bytes.Buffer
	if err := Powertrain(GenConfig{Seed: 1, Messages: 12}).EncodeCSV(&gen); err != nil {
		f.Fatal(err)
	}
	f.Add(gen.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		k, err := DecodeCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := k.EncodeCSV(&buf); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		back, err := DecodeCSV(&buf)
		if err != nil {
			t.Fatalf("re-decode: %v\n%s", err, buf.String())
		}
		if !reflect.DeepEqual(back, k) {
			t.Fatalf("round trip changed the matrix:\n got %+v\nwant %+v", back, k)
		}
	})
}

// A duration column whose nanoseconds leave int64 is refused, naming
// the column. It used to wrap: period_us = 18446744073709552 decoded
// as a 384 ns period, passed Validate, re-encoded as 0 and then no
// longer decoded.
func TestDecodeCSVRejectsOverflowingDurations(t *testing.T) {
	head := "#bus,pt,500000\n" + strings.Join(csvHeader, ",") + "\n"
	for _, tc := range []struct {
		row, column string
	}{
		{"A,0x1,standard,8,18446744073709552,0,false,0,ECU1,", "period_us"},
		{"A,0x1,standard,8,9223372036854776,0,false,0,ECU1,", "period_us"},
		{"A,0x1,standard,8,10000,9223372036854776,false,0,ECU1,", "jitter_us"},
		{"A,0x1,standard,8,10000,-9223372036854776,false,0,ECU1,", "jitter_us"},
		{"A,0x1,standard,8,10000,0,false,18446744073709552,ECU1,", "deadline_us"},
	} {
		_, err := DecodeCSV(strings.NewReader(head + tc.row + "\n"))
		if err == nil || !strings.Contains(err.Error(), tc.column) {
			t.Errorf("%s: error %v, want one naming %s", tc.row, err, tc.column)
		}
	}
	// The largest representable value still decodes.
	k, err := DecodeCSV(strings.NewReader(head + "A,0x1,standard,8,9223372036854775,0,false,0,ECU1,\n"))
	if err != nil || k.Messages[0].Period.Microseconds() != maxMicroseconds {
		t.Fatalf("period at the limit: %v, %v", k, err)
	}
}
