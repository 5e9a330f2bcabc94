package cache

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/contenthash"
)

// DefaultDiskBytes bounds a Disk store constructed with no explicit
// byte budget.
const DefaultDiskBytes int64 = 256 << 20

// Record header layout (little-endian): magic, format version, payload
// crc, payload length, then the codec payload. Anything that does not
// parse — wrong magic, skewed version, short record, crc mismatch,
// undecodable payload — is dropped and read as a miss.
const (
	diskMagic     uint32 = 0x324C5953 // "SYL2"
	diskHeaderLen        = 4 + 2 + 2 + 4 + 4
)

// Segment entry layout: the 16-byte digest, a crc32 (IEEE, little-endian)
// over the digest and the record header, then the record. The entry crc
// covers the key so that a flipped key bit cannot serve a valid record
// under the wrong digest, and it covers the header so that a payload
// length is trusted only once the crc has validated it.
const (
	keyLen         = len(contenthash.Digest{})
	entryPrefixLen = keyLen + 4
	entryHeaderLen = entryPrefixLen + diskHeaderLen
	segmentSuffix  = ".seg"
)

// errAbsent is a plain miss: the key is not indexed, the store is
// closed, or a read raced GC or Close. Every other lookup error marks
// a corrupt entry.
var errAbsent = errors.New("cache: no record")

// Disk is the shared on-disk level of the hierarchy: an append-only
// log of crc-checked versioned records in segment files, with an
// in-memory index from digest to entry. Each Disk appends only to
// segments it created itself, rotating to a new one at 1/8 of the byte
// budget; it reads every other segment in the directory, written by
// earlier or concurrent processes, through read-only descriptors.
// Records another live process appends become visible at the next
// NewDisk. A size-bounded GC deletes whole segments, oldest first,
// once the byte budget is exceeded. Every degraded path — a torn or
// corrupt entry, version skew, a read racing GC or Close — degrades to
// a miss, never a wrong hit or a crash.
//
// Disk is safe for concurrent use and implements Store.
type Disk struct {
	dir      string
	maxBytes int64

	// wmu serialises appends, segment rotation, GC and Close; active
	// is the segment appends go to (nil until the first Put).
	wmu    sync.Mutex
	active *segment

	mu     sync.Mutex
	index  map[contenthash.Digest]entryLoc
	segs   []*segment // by segment number, oldest first; nil once deleted
	closed bool
	bytes  int64

	hits      uint64
	misses    uint64
	evictions uint64
	corrupt   uint64
	skipped   uint64
}

// segment is one open segment file. size counts every byte this Disk
// knows in it, dead entries and a torn tail included.
type segment struct {
	f    *os.File
	num  uint32
	size int64
}

// entryLoc locates an entry. It holds no pointers, so the Go GC never
// scans the index.
type entryLoc struct {
	off  int64
	plen uint32 // payload length; the entry spans entryHeaderLen+plen bytes
	seg  uint32
}

// NewDisk opens (or creates) an on-disk store rooted at dir, holding
// at most maxBytes of segments (<= 0 selects DefaultDiskBytes). The
// directory's segments are read once and every entry whose entry crc
// and payload crc hold is indexed, so restarts resume with the
// already-persisted population. Files other than segments, including
// the one-file-per-record layout of earlier versions (??/*.rec), are
// ignored and left alone.
func NewDisk(dir string, maxBytes int64) (*Disk, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultDiskBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: disk store: %w", err)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("cache: disk store: %w", err)
	}
	d := &Disk{dir: dir, maxBytes: maxBytes, index: map[contenthash.Digest]entryLoc{}}
	// ReadDir sorts by name, and a segment's name starts with its
	// creation time: segments load oldest first, a later entry for a
	// digest replaces an earlier one, and GC order is creation order.
	for _, de := range des {
		if de.Type().IsRegular() && strings.HasSuffix(de.Name(), segmentSuffix) {
			d.load(filepath.Join(dir, de.Name()))
		}
	}
	return d, nil
}

// load indexes one existing segment. It is opened read-only: a Disk
// never writes to a segment it did not create. One that cannot be
// opened is skipped.
func (d *Disk) load(path string) {
	f, err := os.Open(path)
	if err != nil {
		return
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return
	}
	s := &segment{f: f, num: uint32(len(d.segs)), size: info.Size()}
	scanSegment(io.NewSectionReader(f, 0, s.size), s.size, func(key contenthash.Digest, off int64, plen uint32) {
		d.index[key] = entryLoc{off: off, plen: plen, seg: s.num}
	})
	d.segs = append(d.segs, s)
	d.bytes += s.size
}

// scanSegment walks a segment of size bytes from its start and calls
// index for every entry whose framing and payload crc hold. An entry
// that fails only its record checks (a payload crc mismatch, codec
// version skew) is skipped; the walk stops at the first torn or corrupt
// entry header, or at a length that runs past the end, because nothing
// after it can be framed. It reads each byte at most once.
func scanSegment(r io.Reader, size int64, index func(key contenthash.Digest, off int64, plen uint32)) {
	br := bufio.NewReaderSize(r, 64<<10)
	buf := make([]byte, entryHeaderLen, 512)
	for off := int64(0); ; {
		if _, err := io.ReadFull(br, buf[:entryHeaderLen]); err != nil {
			return
		}
		if binary.LittleEndian.Uint32(buf[keyLen:]) != entryCRC(buf) {
			return
		}
		plen := binary.LittleEndian.Uint32(buf[entryPrefixLen+12:])
		n := int64(entryHeaderLen) + int64(plen)
		if n > size-off {
			return
		}
		if int64(cap(buf)) < n {
			grown := make([]byte, n)
			copy(grown, buf[:entryHeaderLen])
			buf = grown
		}
		buf = buf[:n]
		if _, err := io.ReadFull(br, buf[entryHeaderLen:]); err != nil {
			return
		}
		if _, err := recordPayload(buf[entryPrefixLen:]); err == nil {
			index(contenthash.Digest(buf[:keyLen]), off, plen)
		}
		off += n
	}
}

// entryCRC is the crc of an entry's digest and record header.
func entryCRC(entry []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(entry[:keyLen]), crc32.IEEETable, entry[entryPrefixLen:entryHeaderLen])
}

// Dir returns the store's root directory.
func (d *Disk) Dir() string { return d.dir }

// lookup reads key's entry with one ReadAt and returns its validated
// record. The error is errAbsent for a plain miss; any other error
// marks the entry at l as corrupt — a short read included, since only
// a truncated segment ends before an indexed entry.
func (d *Disk) lookup(key contenthash.Digest) ([]byte, entryLoc, error) {
	d.mu.Lock()
	l, ok := d.index[key]
	var f *os.File
	if ok && !d.closed {
		f = d.segs[l.seg].f
	}
	d.mu.Unlock()
	if f == nil {
		return nil, l, errAbsent
	}
	entry := make([]byte, int64(entryHeaderLen)+int64(l.plen))
	if n, err := f.ReadAt(entry, l.off); n < len(entry) {
		if errors.Is(err, io.EOF) {
			return nil, l, fmt.Errorf("cache: entry truncated at %d of %d bytes", n, len(entry))
		}
		return nil, l, errAbsent
	}
	if !bytes.Equal(entry[:keyLen], key[:]) || binary.LittleEndian.Uint32(entry[keyLen:]) != entryCRC(entry) {
		return nil, l, fmt.Errorf("cache: entry header for %v fails its crc", key)
	}
	rec := entry[entryPrefixLen:]
	if _, err := recordPayload(rec); err != nil {
		return nil, l, err
	}
	return rec, l, nil
}

// count books a lookup outcome and reports whether it was a hit. A
// corrupt entry is unindexed, unless a newer entry replaced it; its
// bytes stay in their segment until GC deletes the segment.
func (d *Disk) count(key contenthash.Digest, l entryLoc, err error) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err == nil {
		d.hits++
		return true
	}
	if err != errAbsent {
		if d.index[key] == l {
			delete(d.index, key)
		}
		d.corrupt++
	}
	d.misses++
	return false
}

// Get reads, validates and decodes the record stored under key. An
// absent key is a plain miss; an invalid entry is unindexed and
// counted in Corrupt.
func (d *Disk) Get(key contenthash.Digest) (any, bool) {
	rec, l, err := d.lookup(key)
	var v any
	if err == nil {
		v, err = Decode(rec[diskHeaderLen:])
	}
	return v, d.count(key, l, err)
}

// recordPayload validates a record's framing (magic, version, length,
// crc) and returns the codec payload.
func recordPayload(raw []byte) ([]byte, error) {
	if len(raw) < diskHeaderLen {
		return nil, fmt.Errorf("cache: record truncated at %d bytes", len(raw))
	}
	if m := binary.LittleEndian.Uint32(raw[0:4]); m != diskMagic {
		return nil, fmt.Errorf("cache: bad record magic %#x", m)
	}
	if v := binary.LittleEndian.Uint16(raw[4:6]); v != CodecVersion {
		return nil, fmt.Errorf("cache: record version %d, want %d", v, CodecVersion)
	}
	crc := binary.LittleEndian.Uint32(raw[8:12])
	plen := binary.LittleEndian.Uint32(raw[12:16])
	payload := raw[diskHeaderLen:]
	if uint32(len(payload)) != plen {
		return nil, fmt.Errorf("cache: record payload %d bytes, header says %d", len(payload), plen)
	}
	if got := crc32.ChecksumIEEE(payload); got != crc {
		return nil, fmt.Errorf("cache: record crc %#x, want %#x", got, crc)
	}
	return payload, nil
}

// decodeRecord validates the header and crc and decodes the payload.
func decodeRecord(raw []byte) (any, error) {
	payload, err := recordPayload(raw)
	if err != nil {
		return nil, err
	}
	return Decode(payload)
}

// VerifyRecord validates a record's framing — magic, version, length
// and payload crc — without decoding the payload. The remote tier uses
// it on both ends of the wire: a record that fails is quarantined (read
// as a miss), never trusted.
func VerifyRecord(rec []byte) error {
	_, err := recordPayload(rec)
	return err
}

// DecodeRecord fully validates a record (framing plus codec payload)
// and returns the value it carries.
func DecodeRecord(rec []byte) (any, error) { return decodeRecord(rec) }

// EncodeRecord frames value as a self-contained versioned record — the
// exact bytes Disk persists and the cacheserver wire carries. ok is
// false for values the codec does not carry; such values stay
// in-process.
func EncodeRecord(value any) ([]byte, bool) {
	payload, ok := Encode(value)
	if !ok {
		return nil, false
	}
	return encodeRecord(payload), true
}

// encodeRecord frames a codec payload with the header and crc.
func encodeRecord(payload []byte) []byte {
	rec := make([]byte, diskHeaderLen, diskHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(rec[0:4], diskMagic)
	binary.LittleEndian.PutUint16(rec[4:6], CodecVersion)
	binary.LittleEndian.PutUint32(rec[8:12], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(rec[12:16], uint32(len(payload)))
	return append(rec, payload...)
}

// Put persists a value under key. Encoding is skipped for values the
// wire format does not carry; an indexed key is left alone (equal
// digests imply equal converged values). Exceeding the byte budget
// triggers an oldest-first GC.
func (d *Disk) Put(key contenthash.Digest, value any) {
	payload, ok := Encode(value)
	if !ok {
		d.mu.Lock()
		d.skipped++
		d.mu.Unlock()
		return
	}
	d.append(key, encodeRecord(payload))
}

// GetRecord returns the raw validated record bytes stored under key —
// the server side of the remote tier, which passes records through
// byte-for-byte instead of decoding them. Framing and crc are verified
// before the bytes leave the store; an invalid entry is quarantined
// exactly as in Get.
func (d *Disk) GetRecord(key contenthash.Digest) ([]byte, bool) {
	rec, l, err := d.lookup(key)
	if !d.count(key, l, err) {
		return nil, false
	}
	return rec, true
}

// PutRecord persists pre-framed record bytes under key, after verifying
// the framing and crc (the caller is a wire peer; its bytes are never
// trusted). An indexed key is left alone.
func (d *Disk) PutRecord(key contenthash.Digest, rec []byte) error {
	if err := VerifyRecord(rec); err != nil {
		return err
	}
	d.append(key, rec)
	return nil
}

// HasRecord reports whether a valid record exists under key without
// decoding it (the HEAD side of the remote protocol). Only a corrupt
// entry moves the counters.
func (d *Disk) HasRecord(key contenthash.Digest) bool {
	_, l, err := d.lookup(key)
	if err != nil && err != errAbsent {
		d.count(key, l, err)
	}
	return err == nil
}

// append writes key's entry at the end of this Disk's own segment and
// indexes it, unless key is already indexed or the store is closed,
// then runs GC if the budget is exceeded. A failed write indexes
// nothing, and the next append overwrites its bytes.
func (d *Disk) append(key contenthash.Digest, rec []byte) {
	entry := make([]byte, entryPrefixLen+len(rec))
	copy(entry, key[:])
	copy(entry[entryPrefixLen:], rec)
	binary.LittleEndian.PutUint32(entry[keyLen:], entryCRC(entry))

	d.wmu.Lock()
	d.mu.Lock()
	_, dup := d.index[key]
	closed := d.closed
	d.mu.Unlock()
	var over bool
	if !dup && !closed {
		if s, err := d.writable(int64(len(entry))); err == nil {
			if _, err := s.f.WriteAt(entry, s.size); err == nil {
				d.mu.Lock()
				d.index[key] = entryLoc{off: s.size, plen: uint32(len(rec) - diskHeaderLen), seg: s.num}
				s.size += int64(len(entry))
				d.bytes += int64(len(entry))
				over = d.bytes > d.maxBytes
				d.mu.Unlock()
			}
		}
	}
	d.wmu.Unlock()
	if over {
		d.gc()
	}
}

// writable returns the segment an n-byte entry is appended to,
// creating a new one when there is none yet or the entry would take
// the current one past 1/8 of the budget. The caller holds wmu.
func (d *Disk) writable(n int64) (*segment, error) {
	if s := d.active; s != nil && (s.size == 0 || s.size+n <= d.maxBytes/8) {
		return s, nil
	}
	f, err := createSegment(d.dir)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	s := &segment{f: f, num: uint32(len(d.segs))}
	d.segs = append(d.segs, s)
	d.mu.Unlock()
	d.active = s
	return s, nil
}

// createSegment creates a new, empty segment file in dir. Its name is
// its creation time in fixed-width hex, so names sort oldest first,
// plus a random suffix that keeps concurrent writers apart.
func createSegment(dir string) (*os.File, error) {
	for {
		name := fmt.Sprintf("%016x-%08x%s", uint64(time.Now().UnixNano()), rand.Uint32(), segmentSuffix)
		f, err := os.OpenFile(filepath.Join(dir, name), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if !errors.Is(err, fs.ErrExist) {
			return f, err
		}
	}
}

// gc deletes whole segments, oldest first, until the store is
// comfortably under budget (7/8 of it, so a hot Put stream does not GC
// per entry), and unindexes every entry they held. A segment another
// Disk is still appending to goes the same way; that Disk keeps
// reading it through its open descriptor. A Get racing the deletion
// reads the right bytes or fails its read on the closed file, a plain
// miss.
func (d *Disk) gc() {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	target := d.maxBytes - d.maxBytes/8
	var victims []*segment
	d.mu.Lock()
	if d.bytes > d.maxBytes && !d.closed {
		for i, s := range d.segs {
			if d.bytes <= target {
				break
			}
			if s == nil {
				continue
			}
			victims = append(victims, s)
			d.segs[i] = nil
			d.bytes -= s.size
			if s == d.active {
				d.active = nil
			}
		}
		if len(victims) > 0 {
			for key, l := range d.index {
				if d.segs[l.seg] == nil {
					delete(d.index, key)
					d.evictions++
				}
			}
		}
	}
	d.mu.Unlock()
	for _, s := range victims {
		s.f.Close()
		os.Remove(s.f.Name())
	}
}

// Close closes every segment file. Afterwards Get, GetRecord and
// HasRecord miss and Put and PutRecord store nothing; the segments
// stay on disk for the next NewDisk. Close is idempotent.
func (d *Disk) Close() {
	d.wmu.Lock()
	defer d.wmu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	d.closed = true
	d.active = nil
	for _, s := range d.segs {
		if s != nil {
			s.f.Close()
		}
	}
}

// Stats returns a snapshot of the store counters. Bytes counts segment
// bytes: entry prefixes and entries no longer indexed included.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return Stats{
		Hits: d.hits, Misses: d.misses, Evictions: d.evictions,
		Entries: len(d.index), Bytes: d.bytes, MaxBytes: d.maxBytes,
		Corrupt: d.corrupt, Skipped: d.skipped,
	}
}
