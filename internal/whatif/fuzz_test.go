package whatif

import (
	"bufio"
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// The change-script fuzz targets feed arbitrary bytes to both script
// dialects: a parse must never panic, and every change it returns must
// re-parse from its String() to a deep-equal change, so what sessions
// echo (POST /v1/sessions/{id}/changes) and what symtago whatif prints
// is a script that means the same edit. A rendering longer than a
// script line may be (bufio.Scanner's token limit) is exempt. The
// committed testdata/fuzz corpora run as part of go test.

func FuzzParseScript(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		changes, err := ParseScript(bytes.NewReader(script))
		if err != nil {
			return
		}
		for _, c := range changes {
			line := c.String()
			if len(line) >= bufio.MaxScanTokenSize {
				continue
			}
			back, err := ParseScript(strings.NewReader(line))
			if err != nil {
				t.Fatalf("%q does not re-parse: %v", line, err)
			}
			if len(back) != 1 || !reflect.DeepEqual(back[0], c) {
				t.Fatalf("%q re-parses to %#v, want %#v", line, back, c)
			}
		}
	})
}

func FuzzParseSystemScript(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		changes, err := ParseSystemScript(bytes.NewReader(script))
		if err != nil {
			return
		}
		for _, c := range changes {
			line := c.String()
			if len(line) >= bufio.MaxScanTokenSize {
				continue
			}
			back, err := ParseSystemScript(strings.NewReader(line))
			if err != nil {
				t.Fatalf("%q does not re-parse: %v", line, err)
			}
			if len(back) != 1 || !reflect.DeepEqual(back[0], c) {
				t.Fatalf("%q re-parses to %#v, want %#v", line, back, c)
			}
		}
	})
}

// TestScriptLineLimit pins the longest line both dialects read:
// bufio.Scanner's token limit, newline included. One byte more fails
// the whole script with the scanner's read error.
func TestScriptLineLimit(t *testing.T) {
	for _, tc := range []struct {
		name           string
		prefix, suffix string
		parse          func(string) (int, error)
	}{
		{"bus", "set-jitter ", " 1ms\n", func(s string) (int, error) {
			changes, err := ParseScript(strings.NewReader(s))
			return len(changes), err
		}},
		{"system", "set-event-jitter busA/", " 150us\n", func(s string) (int, error) {
			changes, err := ParseSystemScript(strings.NewReader(s))
			return len(changes), err
		}},
	} {
		name := bufio.MaxScanTokenSize - len(tc.prefix) - len(tc.suffix)
		at := tc.prefix + strings.Repeat("M", name) + tc.suffix
		if n, err := tc.parse(at); err != nil || n != 1 {
			t.Errorf("%s: %d-byte line: %d changes, %v; want 1 change", tc.name, len(at), n, err)
		}
		past := tc.prefix + strings.Repeat("M", name+1) + tc.suffix
		if _, err := tc.parse(past); !errors.Is(err, bufio.ErrTooLong) {
			t.Errorf("%s: %d-byte line: %v, want %v", tc.name, len(past), err, bufio.ErrTooLong)
		}
	}
}
