package cache

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/can"
	"repro/internal/contenthash"
	"repro/internal/errormodel"
	"repro/internal/eventmodel"
	"repro/internal/gateway"
	"repro/internal/osek"
	"repro/internal/rta"
	"repro/internal/tdma"
)

func digestOf(x uint64) contenthash.Digest {
	h := contenthash.New(77)
	h.Word(x)
	return h.Sum()
}

func sampleRTAResult() *rta.Result {
	return &rta.Result{
		Message: rta.Message{
			Name:     "engine_speed",
			Frame:    can.Frame{ID: 0x100, Format: can.Extended29Bit, DLC: 8},
			Event:    eventmodel.Model{Period: 10 * time.Millisecond, Jitter: 2 * time.Millisecond, DMin: 100 * time.Microsecond, Sporadic: true},
			Deadline: 9 * time.Millisecond,
		},
		Priority: 3, C: 222 * time.Microsecond, BCRT: 111 * time.Microsecond,
		Blocking: 130 * time.Microsecond, BusyPeriod: 4 * time.Millisecond,
		Instances: 2, WCRT: rta.Unschedulable, Deadline: 9 * time.Millisecond,
		Schedulable: false,
	}
}

func sampleRTAReport(errors errormodel.Model) *rta.Report {
	return &rta.Report{
		Results:     []rta.Result{*sampleRTAResult(), *sampleRTAResult()},
		Utilization: 0.731234567890123,
		Config: rta.Config{
			Bus:           can.Bus{Name: "powertrain", BitRate: 500000},
			Stuffing:      can.StuffingWorstCase,
			Errors:        errors,
			DeadlineModel: rta.DeadlineMinReArrival,
			Horizon:       2 * time.Second,
		},
	}
}

func sampleValues() []any {
	return []any{
		sampleRTAResult(),
		sampleRTAReport(nil),
		sampleRTAReport(errormodel.None{}),
		sampleRTAReport(errormodel.Sporadic{Interval: 5 * time.Millisecond}),
		sampleRTAReport(errormodel.Burst{Interval: 50 * time.Millisecond, Length: 3, Gap: time.Millisecond}),
		&osek.Report{
			Results: []osek.Result{{
				Task: osek.Task{Name: "ctl", Priority: 7, WCET: time.Millisecond,
					BCET: 300 * time.Microsecond, Event: eventmodel.Periodic(5 * time.Millisecond),
					Kind: 1, ISR: true, Deadline: 4 * time.Millisecond},
				C: 1100 * time.Microsecond, Blocking: 90 * time.Microsecond, Instances: 1,
				WCRT: 2 * time.Millisecond, BCRT: 400 * time.Microsecond,
				Deadline: 4 * time.Millisecond, Schedulable: true,
			}},
			Utilization: 0.42,
		},
		&tdma.Report{
			Results: []tdma.Result{{
				Message: tdma.Message{Name: "lin1", Frame: can.Frame{ID: 9, DLC: 4},
					Event: eventmodel.PeriodicJitter(20*time.Millisecond, time.Millisecond)},
				C: 600 * time.Microsecond, WCRT: 21 * time.Millisecond,
				BacklogInstances: 2, Deadline: 20 * time.Millisecond, Schedulable: false,
			}},
			Cycle: 10 * time.Millisecond, Utilization: 0.66,
		},
		&gateway.Report{
			Backlog: 4, RequiredDepth: 4, Overflow: true, Delay: 3 * time.Millisecond,
			Flows: []gateway.FlowResult{{
				Flow:  gateway.Flow{Name: "f1", Arrival: eventmodel.Periodic(time.Millisecond)},
				Delay: 2 * time.Millisecond, OverwriteLoss: true,
			}},
			Config: gateway.Config{Name: "gw0", Service: eventmodel.Periodic(500 * time.Microsecond),
				Batch: 2, Policy: 1, QueueDepth: 8},
		},
	}
}

// TestCodecRoundTrip pins the wire format: every cacheable type decodes
// to a deep-equal copy, including the error-model interface variants.
func TestCodecRoundTrip(t *testing.T) {
	for i, v := range sampleValues() {
		payload, ok := Encode(v)
		if !ok {
			t.Fatalf("value %d: Encode refused", i)
		}
		got, err := Decode(payload)
		if err != nil {
			t.Fatalf("value %d: Decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, v) {
			t.Fatalf("value %d: round trip mismatch:\n got %#v\nwant %#v", i, got, v)
		}
	}
}

type weirdErrors struct{ errormodel.None }

func (weirdErrors) Name() string { return "weird" }

// TestCodecRefusals: unknown value types and unknown error models are
// not encodable — the caller keeps them in-process instead of
// persisting something it could not faithfully restore.
func TestCodecRefusals(t *testing.T) {
	if _, ok := Encode(42); ok {
		t.Fatal("Encode accepted an int")
	}
	if _, ok := Encode(sampleRTAReport(weirdErrors{})); ok {
		t.Fatal("Encode accepted an unknown error model")
	}
	// Truncations of a valid payload must all fail, never panic.
	payload, _ := Encode(sampleRTAReport(nil))
	for n := 0; n < len(payload); n++ {
		if _, err := Decode(payload[:n]); err == nil {
			t.Fatalf("Decode accepted a %d/%d-byte truncation", n, len(payload))
		}
	}
}

func newTestDisk(t *testing.T, maxBytes int64) *Disk {
	t.Helper()
	return openTestDisk(t, t.TempDir(), maxBytes)
}

// openTestDisk opens a Disk over dir that the test closes at cleanup.
func openTestDisk(t *testing.T, dir string, maxBytes int64) *Disk {
	t.Helper()
	d, err := NewDisk(dir, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

func TestDiskRoundTrip(t *testing.T) {
	d := newTestDisk(t, 0)
	for i, v := range sampleValues() {
		key := digestOf(uint64(i))
		d.Put(key, v)
		got, ok := d.Get(key)
		if !ok {
			t.Fatalf("value %d: disk miss after Put", i)
		}
		if !reflect.DeepEqual(got, v) {
			t.Fatalf("value %d: disk round trip mismatch", i)
		}
	}
	// A second store over the same directory sees the records.
	d2 := openTestDisk(t, d.Dir(), 0)
	st := d2.Stats()
	if st.Entries != len(sampleValues()) || st.Bytes == 0 {
		t.Fatalf("reopened store stats = %+v", st)
	}
	if _, ok := d2.Get(digestOf(0)); !ok {
		t.Fatal("reopened store missed a persisted record")
	}
}

// entryAt locates key's entry by its key bytes inside the store's
// segments: the segment's path and the entry's offset. The entry's
// record starts entryPrefixLen bytes later.
func entryAt(t *testing.T, dir string, key contenthash.Digest) (string, int64) {
	t.Helper()
	paths, _ := filepath.Glob(filepath.Join(dir, "*"+segmentSuffix))
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		if i := bytes.Index(raw, key[:]); i >= 0 {
			return path, int64(i)
		}
	}
	t.Fatalf("no entry for %v in %s", key, dir)
	return "", 0
}

// TestDiskCorruptionPaths: truncated records, flipped payload bytes and
// version skew each degrade to a counted miss and the bad entry is
// unindexed — never a wrong hit, never a crash — and a new Put of the
// key serves again.
func TestDiskCorruptionPaths(t *testing.T) {
	rec, _ := EncodeRecord(sampleRTAResult())
	corruptions := []struct {
		name string
		// mangle edits a segment whose record starts at byte r.
		mangle func(seg []byte, r int) []byte
	}{
		{"truncated", func(b []byte, r int) []byte { return b[:r+len(rec)/2] }},
		{"empty", func(b []byte, r int) []byte { return b[:r] }},
		{"bad-crc", func(b []byte, r int) []byte {
			b[r+len(rec)-1] ^= 0xFF
			return b
		}},
		{"version-skew", func(b []byte, r int) []byte {
			b[r+4], b[r+5] = 0xEE, 0xEE
			return b
		}},
		{"bad-magic", func(b []byte, r int) []byte {
			b[r] ^= 0xFF
			return b
		}},
		{"bad-type-tag", func(b []byte, r int) []byte {
			// Flip the payload type byte and refresh nothing else: the
			// crc now mismatches, which is exactly the point — payload
			// edits cannot slip through.
			b[r+diskHeaderLen] = 0x7F
			return b
		}},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			d := newTestDisk(t, 0)
			key := digestOf(1)
			d.Put(key, sampleRTAResult())
			path, off := entryAt(t, d.Dir(), key)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mangle(raw, int(off)+entryPrefixLen), 0o644); err != nil {
				t.Fatal(err)
			}
			if v, ok := d.Get(key); ok {
				t.Fatalf("corrupt record returned a hit: %#v", v)
			}
			st := d.Stats()
			if st.Corrupt != 1 || st.Misses != 1 {
				t.Fatalf("corrupt/misses = %d/%d, want 1/1", st.Corrupt, st.Misses)
			}
			if st.Entries != 0 {
				t.Fatal("corrupt entry not unindexed")
			}
			// The key is reusable: a fresh Put serves hits again.
			d.Put(key, sampleRTAResult())
			if _, ok := d.Get(key); !ok {
				t.Fatal("re-Put after corruption drop did not serve")
			}
		})
	}
}

// TestDiskGC: exceeding the byte budget deletes the oldest segments
// first, their files included, and the store keeps serving the
// survivors.
func TestDiskGC(t *testing.T) {
	rep := sampleRTAReport(nil)
	payload, _ := Encode(rep)
	recLen := int64(len(encodeRecord(payload)))
	// Budget for ~8 records; a segment holds one entry.
	d := newTestDisk(t, 8*recLen)
	for i := 0; i < 32; i++ {
		d.Put(digestOf(uint64(i)), rep)
	}
	st := d.Stats()
	if st.Evictions == 0 || st.Bytes > st.MaxBytes {
		t.Fatalf("GC did not bound the store: %+v", st)
	}
	if _, ok := d.Get(digestOf(31)); !ok {
		t.Fatal("newest record evicted before older ones")
	}
	if _, ok := d.Get(digestOf(0)); ok {
		t.Fatal("oldest record survived a full-budget GC")
	}
	// Every survivor is newer than every evicted record.
	for i := 0; i < 32; i++ {
		if _, ok := d.Get(digestOf(uint64(i))); ok != (i >= 32-st.Entries) {
			t.Fatalf("record %d: hit=%v with the %d newest resident", i, ok, st.Entries)
		}
	}
	if segs, _ := filepath.Glob(filepath.Join(d.Dir(), "*"+segmentSuffix)); len(segs) != st.Entries {
		t.Fatalf("%d segment files for %d resident one-entry segments", len(segs), st.Entries)
	}
}

// TestDiskGCvsGet hammers Get on keys that a concurrent GC is
// deleting: every outcome must be a correct value or a plain miss,
// never a quarantine.
func TestDiskGCvsGet(t *testing.T) {
	rep := sampleRTAReport(nil)
	payload, _ := Encode(rep)
	recLen := int64(len(encodeRecord(payload)))
	d := newTestDisk(t, 4*recLen)
	const keys = 64
	for i := 0; i < keys; i++ {
		d.Put(digestOf(uint64(i)), rep)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for round := 0; round < 8; round++ {
			for i := 0; i < keys; i++ {
				d.Put(digestOf(uint64(i)), rep)
			}
			d.gc()
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		for i := 0; i < keys; i++ {
			if v, ok := d.Get(digestOf(uint64(i))); ok {
				if !reflect.DeepEqual(v, rep) {
					t.Fatal("Get under concurrent GC returned a wrong value")
				}
			}
		}
	}
	if c := d.Stats().Corrupt; c != 0 {
		t.Fatalf("%d reads racing GC were quarantined, want plain misses", c)
	}
}

// TestTiered pins the promotion protocol: write-through Put, L1 hit,
// L2 hit + promotion, a miss of both levels, and Stats summed from the
// levels' own counters.
func TestTiered(t *testing.T) {
	l1 := NewLRU(0)
	l2 := newTestDisk(t, 0)
	tc := NewTiered(l1, l2)

	key := digestOf(1)
	v := sampleRTAResult()
	tc.Put(key, v)
	if _, ok := l2.Get(key); !ok {
		t.Fatal("Put did not write through to L2")
	}
	if got, ok := tc.Get(key); !ok || !reflect.DeepEqual(got, v) {
		t.Fatalf("L1 hit: got %v ok=%v", got, ok)
	}

	// Cold L1: the L2 record is promoted.
	coldL1 := NewLRU(0)
	cold := NewTiered(coldL1, l2)
	got, ok := cold.Get(key)
	if !ok || !reflect.DeepEqual(got, v) {
		t.Fatalf("L2 hit: got %v ok=%v", got, ok)
	}
	if _, ok := coldL1.Get(key); !ok {
		t.Fatal("L2 hit was not promoted into L1")
	}

	// A miss misses both levels.
	if _, ok := cold.Get(digestOf(3)); ok {
		t.Fatal("hit on a never-put key")
	}
	// coldL1: two misses, the promotion probe's hit; l2: the direct
	// probe's and the promoted lookup's hits, one miss.
	st := cold.Stats()
	if st.Hits != 3 || st.Misses != 1 || st.Entries != 1 || st.Bytes != l2.Stats().Bytes {
		t.Fatalf("tiered stats = %+v", st)
	}
}
