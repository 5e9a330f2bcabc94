package whatif

import (
	"bufio"
	"bytes"
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
