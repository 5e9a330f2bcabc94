package cache

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/contenthash"
)

// fillSegment stores n sample records under digestOf(0..n-1) in a new
// store, closes it and returns its one segment's path and bytes.
func fillSegment(t testing.TB, dir string, n int) (string, []byte) {
	d, err := NewDisk(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	vals := sampleValues()
	for i := 0; i < n; i++ {
		d.Put(digestOf(uint64(i)), vals[i%len(vals)])
	}
	d.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "*"+segmentSuffix))
	if len(segs) != 1 {
		t.Fatalf("%d segments after filling one store, want 1", len(segs))
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	return segs[0], raw
}

// snapshot maps every file under dir to its bytes and mtime.
func snapshot(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	filepath.WalkDir(dir, func(path string, de os.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return err
		}
		raw, rerr := os.ReadFile(path)
		info, ierr := de.Info()
		if rerr != nil || ierr != nil {
			t.Fatalf("snapshot %s: %v %v", path, rerr, ierr)
		}
		files[path] = info.ModTime().String() + "\x00" + string(raw)
		return nil
	})
	return files
}

// unchanged fails unless every file of before is still in dir with the
// same bytes and mtime.
func unchanged(t *testing.T, what string, before map[string]string, dir string) {
	t.Helper()
	after := snapshot(t, dir)
	for path, v := range before {
		if after[path] != v {
			t.Fatalf("%s: %s changed", what, filepath.Base(path))
		}
	}
}

// TestDiskTornTail cuts the segment at every byte offset of its last
// entry: the earlier records still serve, the torn one misses, and
// nothing panics.
func TestDiskTornTail(t *testing.T) {
	const n = 5
	path, raw := fillSegment(t, t.TempDir(), n)
	_, last := entryAt(t, filepath.Dir(path), digestOf(n-1))
	dir := t.TempDir()
	torn := filepath.Join(dir, filepath.Base(path))
	vals := sampleValues()
	for cut := last; cut <= int64(len(raw)); cut++ {
		if err := os.WriteFile(torn, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := NewDisk(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		whole := cut == int64(len(raw))
		for i := 0; i < n; i++ {
			v, ok := d.Get(digestOf(uint64(i)))
			if want := i < n-1 || whole; ok != want {
				t.Fatalf("cut at %d: record %d hit=%v, want %v", cut, i, ok, want)
			}
			if ok && !reflect.DeepEqual(v, vals[i%len(vals)]) {
				t.Fatalf("cut at %d: record %d decoded a different value", cut, i)
			}
		}
		if st := d.Stats(); st.Corrupt != 0 || st.Bytes != cut {
			t.Fatalf("cut at %d: stats %+v", cut, st)
		}
		d.Close()
	}
}

// TestDiskGCAcrossRestarts: each run of a store writes new segments,
// and GC deletes the oldest ones, those earlier runs wrote included,
// so the directory stays within the budget across restarts.
func TestDiskGCAcrossRestarts(t *testing.T) {
	rep := sampleRTAReport(nil)
	rec, _ := EncodeRecord(rep)
	budget := 8 * int64(len(rec))
	dir := t.TempDir()
	for run := 0; run < 5; run++ {
		d, err := NewDisk(dir, budget)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			d.Put(digestOf(uint64(run*100+i)), rep)
		}
		d.Close()
		var onDisk int64
		segs, _ := filepath.Glob(filepath.Join(dir, "*"+segmentSuffix))
		for _, path := range segs {
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			onDisk += info.Size()
		}
		if onDisk > budget {
			t.Fatalf("run %d: %d segment bytes on disk, budget %d", run, onDisk, budget)
		}
	}
	d := openTestDisk(t, dir, budget)
	if _, ok := d.Get(digestOf(405)); !ok {
		t.Fatal("the last run's newest record did not survive")
	}
	if _, ok := d.Get(digestOf(0)); ok {
		t.Fatal("the first run's oldest record survived four later runs")
	}
}

// TestDiskSkipsInvalidRecords: an entry whose framing holds but whose
// record fails — a payload crc mismatch, codec version skew — is skipped
// at open, and the entries after it are still indexed.
func TestDiskSkipsInvalidRecords(t *testing.T) {
	path, raw := fillSegment(t, t.TempDir(), 3)
	dir := filepath.Dir(path)
	_, bad := entryAt(t, dir, digestOf(0))
	_, skewed := entryAt(t, dir, digestOf(1))
	raw[int(bad)+entryHeaderLen] ^= 0xFF // a payload byte: the entry crc still holds
	entry := raw[skewed:]
	binary.LittleEndian.PutUint16(entry[entryPrefixLen+4:], CodecVersion+1)
	binary.LittleEndian.PutUint32(entry[keyLen:], entryCRC(entry))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	d := openTestDisk(t, dir, 0)
	if st := d.Stats(); st.Entries != 1 {
		t.Fatalf("indexed %d entries, want only the valid third", st.Entries)
	}
	for i, want := range []bool{false, false, true} {
		if _, ok := d.Get(digestOf(uint64(i))); ok != want {
			t.Fatalf("record %d: hit=%v, want %v", i, ok, want)
		}
	}
}

// TestDiskKeyBitFlip flips each of the 128 key bits of a stored entry
// in turn: neither the original digest nor the flipped one may hit, on
// the open store or after a reopen. The entry crc covers the key; a
// payload crc alone would serve the record under the flipped digest.
func TestDiskKeyBitFlip(t *testing.T) {
	key := digestOf(0)
	path, raw := fillSegment(t, t.TempDir(), 1)
	_, off := entryAt(t, filepath.Dir(path), key)
	for bit := 0; bit < 128; bit++ {
		flipped := key
		flipped[bit/8] ^= 1 << (bit % 8)
		dir := t.TempDir()
		seg := filepath.Join(dir, filepath.Base(path))
		if err := os.WriteFile(seg, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		d := openTestDisk(t, dir, 0)
		f, err := os.OpenFile(seg, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(flipped[bit/8:bit/8+1], off+int64(bit/8)); err != nil {
			t.Fatal(err)
		}
		f.Close()
		for _, k := range []contenthash.Digest{key, flipped} {
			if _, ok := d.Get(k); ok {
				t.Fatalf("bit %d: open store served %v", bit, k)
			}
		}
		if st := d.Stats(); st.Corrupt != 1 || st.Entries != 0 {
			t.Fatalf("bit %d: open store stats %+v, want 1 corrupt, 0 entries", bit, st)
		}
		re := openTestDisk(t, dir, 0)
		for _, k := range []contenthash.Digest{key, flipped} {
			if _, ok := re.Get(k); ok {
				t.Fatalf("bit %d: reopened store served %v", bit, k)
			}
		}
		if st := re.Stats(); st.Entries != 0 {
			t.Fatalf("bit %d: reopened store indexed %d entries", bit, st.Entries)
		}
	}
}

// TestDiskSharedDirectory: two stores over one directory each append
// only to their own segments, never see each other's new records, and
// a third store opened afterwards sees both sets.
func TestDiskSharedDirectory(t *testing.T) {
	dir := t.TempDir()
	vals := sampleValues()
	put := func(d *Disk, from, to int) {
		for i := from; i < to; i++ {
			d.Put(digestOf(uint64(i)), vals[i%len(vals)])
		}
	}
	a := openTestDisk(t, dir, 0)
	put(a, 0, 10)
	b := openTestDisk(t, dir, 0)
	if got := b.Stats().Entries; got != 10 {
		t.Fatalf("b opened %d of a's 10 records", got)
	}
	aFiles := snapshot(t, dir)
	put(b, 0, 20) // 0-9 are indexed from a's segment: no second copy
	unchanged(t, "b's Puts", aFiles, dir)
	bFiles := snapshot(t, dir)
	for path := range aFiles {
		delete(bFiles, path)
	}
	if len(bFiles) != 1 {
		t.Fatalf("b created %d segments, want 1", len(bFiles))
	}
	put(a, 20, 30)
	unchanged(t, "a's Puts", bFiles, dir)
	if _, ok := a.Get(digestOf(15)); ok {
		t.Fatal("a served a record b appended after a opened")
	}
	c := openTestDisk(t, dir, 0)
	if got := c.Stats().Entries; got != 30 {
		t.Fatalf("c indexed %d records, want 30", got)
	}
	for i := 0; i < 30; i++ {
		if v, ok := c.Get(digestOf(uint64(i))); !ok || !reflect.DeepEqual(v, vals[i%len(vals)]) {
			t.Fatalf("c: record %d hit=%v", i, ok)
		}
	}
}

// TestDiskOldLayoutIgnored: a directory in the one-file-per-record
// layout (??/*.rec, plus a put-* temp file) opens as an empty store,
// and neither Puts nor GC touch its files.
func TestDiskOldLayoutIgnored(t *testing.T) {
	dir := t.TempDir()
	rec, _ := EncodeRecord(sampleRTAResult())
	key := digestOf(1)
	hex := key.String()
	if err := os.MkdirAll(filepath.Join(dir, hex[:2]), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{hex + ".rec", "put-123"} {
		if err := os.WriteFile(filepath.Join(dir, hex[:2], name), rec, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := snapshot(t, dir)
	d := openTestDisk(t, dir, 4*int64(len(rec)))
	if st := d.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("old layout opened as %+v, want an empty store", st)
	}
	if _, ok := d.Get(key); ok {
		t.Fatal("old-layout record served")
	}
	for i := 0; i < 32; i++ {
		d.Put(digestOf(uint64(i)), sampleRTAResult())
	}
	if st := d.Stats(); st.Evictions == 0 {
		t.Fatalf("no GC ran: %+v", st)
	}
	unchanged(t, "Puts and GC", before, dir)
}

// TestDiskAfterClose: a closed store misses every lookup and stores
// nothing, as Remote after Close.
func TestDiskAfterClose(t *testing.T) {
	d := newTestDisk(t, 0)
	key := digestOf(1)
	d.Put(key, sampleRTAResult())
	d.Close()
	d.Close()
	if _, ok := d.Get(key); ok {
		t.Fatal("Get hit after Close")
	}
	if _, ok := d.GetRecord(key); ok || d.HasRecord(key) {
		t.Fatal("record served after Close")
	}
	before := d.Stats()
	d.Put(digestOf(2), sampleRTAResult())
	rec, _ := EncodeRecord(sampleRTAResult())
	if err := d.PutRecord(digestOf(3), rec); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Entries != before.Entries || st.Bytes != before.Bytes {
		t.Fatalf("Put after Close stored: %+v, was %+v", st, before)
	}
	if re := openTestDisk(t, d.Dir(), 0); re.Stats().Entries != 1 {
		t.Fatal("Close lost the stored record or Put after Close wrote one")
	}
}

// TestDiskCloseVsGet: Gets racing Close return the right value or a
// plain miss; a read that fails on a closed file is never quarantined.
func TestDiskCloseVsGet(t *testing.T) {
	rep := sampleRTAReport(nil)
	d := newTestDisk(t, 0)
	const keys = 64
	for i := 0; i < keys; i++ {
		d.Put(digestOf(uint64(i)), rep)
	}
	var reads, wrong atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if v, ok := d.Get(digestOf(uint64(i % keys))); ok && !reflect.DeepEqual(v, rep) {
					wrong.Add(1)
				}
				reads.Add(1)
			}
		}()
	}
	for reads.Load() < 1000 {
		runtime.Gosched()
	}
	d.Close()
	for n := reads.Load(); reads.Load() < n+1000; {
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
	if n := wrong.Load(); n != 0 {
		t.Fatalf("%d Gets racing Close returned a wrong value", n)
	}
	if c := d.Stats().Corrupt; c != 0 {
		t.Fatalf("%d reads racing Close were quarantined, want plain misses", c)
	}
}

// TestDiskCloseReleasesDescriptors opens and closes 200 stores over
// one populated directory: the process's open descriptors must not
// grow.
func TestDiskCloseReleasesDescriptors(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("counts /proc/self/fd")
	}
	rep := sampleRTAReport(nil)
	rec, _ := EncodeRecord(rep)
	dir := t.TempDir()
	// A small budget rotates segments, so every store holds several.
	budget := 40 * int64(len(rec))
	fill := openTestDisk(t, dir, budget)
	for i := 0; i < 24; i++ {
		fill.Put(digestOf(uint64(i)), rep)
	}
	fill.Close()
	fds := func() int {
		des, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(des)
	}
	start := fds()
	for i := 0; i < 200; i++ {
		d, err := NewDisk(dir, budget)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := d.Get(digestOf(uint64(i % 24))); !ok {
			t.Fatalf("store %d missed a stored record", i)
		}
		if i%50 == 0 {
			d.Put(digestOf(uint64(1000+i)), rep)
		}
		d.Close()
	}
	// Descriptors of other tests' connections may close meanwhile; a
	// leak would leave at least one per store.
	if end := fds(); end > start {
		t.Fatalf("open descriptors grew from %d to %d over 200 open/close cycles", start, end)
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// FuzzDiskOpen opens a store over one segment of arbitrary bytes,
// optionally after a valid segment's bytes. The scan must read each
// byte at most once and index only entries whose records verify; every
// indexed record must then serve, Get exactly what DecodeRecord makes
// of GetRecord's bytes — or, for a well-framed payload the codec
// refuses, a counted corrupt miss.
func FuzzDiskOpen(f *testing.F) {
	_, valid := fillSegment(f, f.TempDir(), 3)
	f.Add([]byte{}, false)
	f.Add(valid, false)
	f.Add(valid[:len(valid)-1], false)
	f.Add(valid[:50], true)
	f.Add([]byte("garbage"), true)
	// Fuzz calls run one at a time in each process: they share a
	// directory and overwrite its one segment.
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte, afterValid bool) {
		seg := data
		if afterValid {
			seg = append(append([]byte(nil), valid...), data...)
		}
		cr := &countingReader{r: bytes.NewReader(seg)}
		scanned := 0
		scanSegment(cr, int64(len(seg)), func(contenthash.Digest, int64, uint32) { scanned++ })
		if cr.n > int64(len(seg)) || scanned > len(seg)/entryHeaderLen {
			t.Fatalf("scan read %d bytes and indexed %d entries of a %d-byte segment", cr.n, scanned, len(seg))
		}

		if err := os.WriteFile(filepath.Join(dir, "0"+segmentSuffix), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := NewDisk(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		if afterValid && d.Stats().Entries < 3 {
			t.Fatalf("a tail after a valid segment lost its records: %d indexed", d.Stats().Entries)
		}
		keys := make([]contenthash.Digest, 0, len(d.index))
		for k := range d.index {
			keys = append(keys, k)
		}
		for _, k := range keys {
			rec, ok := d.GetRecord(k)
			if !ok {
				t.Fatalf("indexed %v does not serve", k)
			}
			want, derr := DecodeRecord(rec)
			got, hit := d.Get(k)
			if derr != nil {
				if hit {
					t.Fatalf("%v: Get served a record DecodeRecord refuses: %v", k, derr)
				}
				continue
			}
			if !hit || !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: Get = %v, %v; DecodeRecord gives %v", k, got, hit, want)
			}
		}
	})
}

// BenchmarkDiskCache measures the disk L2 per operation: a Get hit and
// miss, a Put of a fresh key, and the open of a 50k-record directory,
// which also reports the index's heap bytes per record.
func BenchmarkDiskCache(b *testing.B) {
	rep := sampleRTAReport(nil)
	const records = 50_000
	keys := make([]contenthash.Digest, 2*records)
	for i := range keys {
		keys[i] = digestOf(uint64(i))
	}
	dir := b.TempDir()
	fill, err := NewDisk(dir, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range keys[:records] {
		fill.Put(k, rep)
	}
	fill.Close()
	open := func(b *testing.B) *Disk {
		d, err := NewDisk(dir, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(d.Close)
		return d
	}

	b.Run("get-hit", func(b *testing.B) {
		d := open(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := d.Get(keys[i%records]); !ok {
				b.Fatal("miss")
			}
		}
	})
	b.Run("get-miss", func(b *testing.B) {
		d := open(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := d.Get(keys[records+i%records]); ok {
				b.Fatal("hit")
			}
		}
	})
	b.Run("put", func(b *testing.B) {
		d := newBenchDisk(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.Put(digestOf(uint64(i)), rep)
		}
	})
	b.Run("open-50k", func(b *testing.B) {
		// The index's memory: live heap with one opened store, less
		// the heap without it.
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		d, err := NewDisk(dir, 0)
		if err != nil {
			b.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		if n := d.Stats().Entries; n != records {
			b.Fatalf("opened %d records, want %d", n, records)
		}
		d.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d, err := NewDisk(dir, 0)
			if err != nil {
				b.Fatal(err)
			}
			d.Close()
		}
		b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/records, "heapB/record")
	})
}

// newBenchDisk opens an empty store that the benchmark closes.
func newBenchDisk(b *testing.B) *Disk {
	d, err := NewDisk(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(d.Close)
	return d
}
