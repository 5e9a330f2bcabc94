package cacheserver

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/contenthash"
	"repro/internal/rta"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	disk, err := cache.NewDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(disk.Close)
	srv := New(disk)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func testDigest(x uint64) contenthash.Digest {
	h := contenthash.New(99)
	h.Word(x)
	return h.Sum()
}

func sampleValue() *rta.Result {
	return &rta.Result{Priority: 5, C: 100 * time.Microsecond, WCRT: 2 * time.Millisecond}
}

// TestServerClientRoundTrip is the real client against the real
// server: PUT through cache.Remote's write-behind, GET from a second
// client, byte-identical record on disk.
func TestServerClientRoundTrip(t *testing.T) {
	srv, ts := newTestServer(t)
	w, err := cache.NewRemote(cache.RemoteConfig{BaseURL: ts.URL, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	want := sampleValue()
	key := testDigest(1)
	w.Put(key, want)
	w.Close()

	r, err := cache.NewRemote(cache.RemoteConfig{BaseURL: ts.URL, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, ok := r.Get(key)
	if !ok {
		t.Fatal("miss after flushed Put")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("round trip through the real server changed the value")
	}
	if _, ok := r.Get(testDigest(2)); ok {
		t.Fatal("hit for a never-stored key")
	}
	if srv.Disk().Stats().Entries != 1 {
		t.Fatalf("server disk entries = %d", srv.Disk().Stats().Entries)
	}
}

// TestServerProtocol pins the raw HTTP surface: HEAD probes, bad
// digests, unvalidatable records, oversize bodies, idempotent PUT.
func TestServerProtocol(t *testing.T) {
	_, ts := newTestServer(t)
	client := ts.Client()
	key := testDigest(7)
	rec, ok := cache.EncodeRecord(sampleValue())
	if !ok {
		t.Fatal("EncodeRecord refused a sample value")
	}
	url := ts.URL + cache.RecordPathPrefix + key.String()

	do := func(method, u string, body []byte) *http.Response {
		t.Helper()
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequest(method, u, rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	if resp := do(http.MethodHead, url, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("HEAD of absent record: %d", resp.StatusCode)
	}
	if resp := do(http.MethodGet, url, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET of absent record: %d", resp.StatusCode)
	}
	if resp := do(http.MethodPut, url, rec); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT: %d", resp.StatusCode)
	}
	// Idempotent: storing the same record again succeeds.
	if resp := do(http.MethodPut, url, rec); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("second PUT: %d", resp.StatusCode)
	}
	if resp := do(http.MethodHead, url, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("HEAD of present record: %d", resp.StatusCode)
	}
	resp := do(http.MethodGet, url, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET: %d", resp.StatusCode)
	}
	raw, _ := io.ReadAll(resp.Body)
	if !bytes.Equal(raw, rec) {
		t.Fatal("served record differs from the stored bytes")
	}

	// Bad digests never reach the store.
	for _, bad := range []string{"nothex", "abc", strings.Repeat("g", 32), strings.Repeat("ab", 17)} {
		if resp := do(http.MethodGet, ts.URL+cache.RecordPathPrefix+bad, nil); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET %q: %d, want 400", bad, resp.StatusCode)
		}
	}
	// A well-framed record of garbage (valid crc over an undecodable
	// payload) is refused: the store only holds decodable records.
	mangled := append([]byte(nil), rec...)
	mangled[len(mangled)-1] ^= 0xFF
	if resp := do(http.MethodPut, ts.URL+cache.RecordPathPrefix+testDigest(8).String(), mangled); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("PUT of corrupt record: %d, want 422", resp.StatusCode)
	}
	// Oversize bodies are cut off.
	huge := make([]byte, cache.MaxRecordBytes+1)
	if resp := do(http.MethodPut, ts.URL+cache.RecordPathPrefix+testDigest(9).String(), huge); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize PUT: %d, want 413", resp.StatusCode)
	}
}

// TestServerMetrics: the Prometheus exposition carries the request
// outcomes and — after a record rots on disk — the quarantine counter.
func TestServerMetrics(t *testing.T) {
	srv, ts := newTestServer(t)
	client := ts.Client()
	key := testDigest(3)
	rec, _ := cache.EncodeRecord(sampleValue())
	req, _ := http.NewRequest(http.MethodPut, ts.URL+cache.RecordPathPrefix+key.String(), bytes.NewReader(rec))
	if resp, err := client.Do(req); err != nil || resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT failed: %v %v", err, resp)
	}
	client.Get(ts.URL + cache.RecordPathPrefix + key.String())           // hit
	client.Get(ts.URL + cache.RecordPathPrefix + testDigest(4).String()) // miss
	client.Get(ts.URL + cache.RecordPathPrefix + "zzz")                  // bad request
	if resp, err := client.Get(ts.URL + cache.HealthPathRemote); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	}

	// Rot the record's last byte on disk, found by the key bytes that
	// head its segment entry (key and entry crc, 20 bytes, then the
	// record); the next GET quarantines it.
	segs, _ := filepath.Glob(filepath.Join(srv.Disk().Dir(), "*.seg"))
	rotted := false
	for _, path := range segs {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if i := bytes.Index(raw, key[:]); i >= 0 {
			raw[i+20+len(rec)-1] ^= 0xFF
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			rotted = true
		}
	}
	if !rotted {
		t.Fatal("stored record not found in any segment")
	}
	if resp, _ := client.Get(ts.URL + cache.RecordPathPrefix + key.String()); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET of rotted record: %d, want 404 (quarantined)", resp.StatusCode)
	}

	resp, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		`symtago_cacheserver_requests_total{method="get",outcome="hit"} 1`,
		`symtago_cacheserver_requests_total{method="get",outcome="miss"} 2`,
		`symtago_cacheserver_requests_total{method="put",outcome="stored"} 1`,
		`symtago_cacheserver_bad_requests_total 1`,
		`symtago_cacheserver_disk_corrupt_total 1`,
		"symtago_cacheserver_uptime_seconds",
		"symtago_cacheserver_bytes_written_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// FuzzCacheServerPut sends arbitrary PUT bodies to the handler, each
// under a digest of its own bytes. Every answer is 204, 400, 413 or
// 422 — never a panic or a 5xx — and after a 204 a GET returns the
// same bytes.
func FuzzCacheServerPut(f *testing.F) {
	rec, _ := cache.EncodeRecord(sampleValue())
	mangled := append([]byte(nil), rec...)
	mangled[len(mangled)-1] ^= 0xFF
	for _, seed := range [][]byte{rec, {}, rec[:len(rec)-1], mangled} {
		f.Add(seed)
	}
	disk, err := cache.NewDisk(f.TempDir(), 0)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(disk.Close)
	h := New(disk).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		hs := contenthash.New(5)
		hs.String(string(body))
		url := cache.RecordPathPrefix + hs.Sum().String()
		put := httptest.NewRecorder()
		h.ServeHTTP(put, httptest.NewRequest(http.MethodPut, url, bytes.NewReader(body)))
		switch put.Code {
		case http.StatusNoContent:
			get := httptest.NewRecorder()
			h.ServeHTTP(get, httptest.NewRequest(http.MethodGet, url, nil))
			if get.Code != http.StatusOK || !bytes.Equal(get.Body.Bytes(), body) {
				t.Fatalf("GET after 204: %d, %d bytes, want the %d stored", get.Code, get.Body.Len(), len(body))
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
		default:
			t.Fatalf("PUT answered %d", put.Code)
		}
	})
}
