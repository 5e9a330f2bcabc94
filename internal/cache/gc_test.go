package cache

import (
	"os"
	"reflect"
	"sync"
	"testing"
)

// TestDiskGCAccountingRace: GC runs interleaved with Puts of fresh
// keys, with reads of the oldest records (the segments GC deletes
// first) and with one corrupt-entry quarantine. After quiescence the
// live Bytes and Entries must equal a rescan of the directory; a drift
// would make later GCs fire too early or never.
func TestDiskGCAccountingRace(t *testing.T) {
	rep := sampleRTAReport(nil)
	payload, _ := Encode(rep)
	recLen := int64(len(encodeRecord(payload)))
	d := newTestDisk(t, 6*recLen)

	const (
		writers = 4
		keys    = 48
	)
	var writersWG, readerWG sync.WaitGroup
	stop := make(chan struct{})

	// Readers hammer the oldest shard of keys — exactly the records a
	// concurrent GC unlinks first — and must only ever see the correct
	// value or a miss.
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := 0; i < 8; i++ {
				if v, ok := d.Get(digestOf(uint64(i))); ok {
					if !reflect.DeepEqual(v, rep) {
						t.Error("read of a GC'd shard returned a wrong value")
						return
					}
				}
			}
		}
	}()
	// Writers keep pushing records while GCs run on every overflow.
	writersWG.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer writersWG.Done()
			for round := 0; round < 6; round++ {
				for i := 0; i < keys; i++ {
					d.Put(digestOf(uint64(w*10_000+round*1_000+i)), rep)
				}
				d.gc()
			}
		}(w)
	}
	// One corrupt record mid-flight exercises the quarantine path's
	// accounting under the same race.
	quarantined := digestOf(999_999)
	d.Put(quarantined, rep)
	path, off := entryAt(t, d.Dir(), quarantined)
	if f, err := os.OpenFile(path, os.O_RDWR, 0); err == nil {
		last := off + int64(entryPrefixLen) + recLen - 1
		var b [1]byte
		if _, err := f.ReadAt(b[:], last); err == nil {
			b[0] ^= 0xFF
			f.WriteAt(b[:], last)
		}
		f.Close()
	}
	d.Get(quarantined) // quarantines (unless GC removed it first)

	// Quiesce: writers first (GCs keep racing the reader until the
	// end), then release the reader.
	writersWG.Wait()
	close(stop)
	readerWG.Wait()
	d.gc()

	// The ground truth: reopen the directory and rescan.
	fresh := openTestDisk(t, d.Dir(), 6*recLen)
	got, want := d.Stats(), fresh.Stats()
	if got.Bytes != want.Bytes || got.Entries != want.Entries {
		t.Fatalf("accounting drifted from the directory: live %d B / %d entries, rescan %d B / %d entries",
			got.Bytes, got.Entries, want.Bytes, want.Entries)
	}
	if got.Bytes > got.MaxBytes {
		t.Fatalf("store left over budget after final GC: %+v", got)
	}
}
