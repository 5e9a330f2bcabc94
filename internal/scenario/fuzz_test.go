package scenario

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzParseSpec feeds arbitrary bytes to the spec reader: the upload
// format of the campaign and session routes and the corpus reference
// on the shard wire. A parse must never panic, and every spec that
// parses and validates must re-encode with Encode and re-parse to a
// deep-equal spec, so a spec a server forwards names the same corpus.
// The committed testdata/fuzz corpus runs as part of go test.
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, text []byte) {
		spec, err := ParseSpec(bytes.NewReader(text))
		if err != nil || spec.WithDefaults().Validate() != nil {
			return
		}
		var buf bytes.Buffer
		if err := spec.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		encoded := buf.String()
		back, err := ParseSpec(&buf)
		if err != nil {
			t.Fatalf("encoded spec does not re-parse: %v\n%s", err, encoded)
		}
		if !reflect.DeepEqual(back, spec) {
			t.Fatalf("spec re-parses to\n%+v\nwant\n%+v\nencoded:\n%s", back, spec, encoded)
		}
	})
}
