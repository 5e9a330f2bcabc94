package cacheserver

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/contenthash"
	"repro/internal/obs"
)

// Server serves the remote cache protocol over a shared cache.Disk:
//
//	GET  /cache/{digest}  the record bytes, or 404
//	HEAD /cache/{digest}  existence probe (no body)
//	PUT  /cache/{digest}  store a record (204; idempotent)
//	GET  /healthz         liveness + served counts
//	GET  /metrics         Prometheus text exposition
//
// The digest is the 32-hex content hash; the body is the versioned
// crc-framed record format of cache.Disk, passed through byte-for-byte
// (the store keeps it whole inside a segment entry).
// A PUT that fails validation (bad magic, version skew, crc mismatch,
// undecodable payload) is refused with 422 — the store only ever holds
// records every fleet member can read. Create with New, expose with
// Handler; Server is safe for concurrent use.
type Server struct {
	disk  *cache.Disk
	start time.Time

	getHits, getMisses   atomic.Uint64
	headHits, headMisses atomic.Uint64
	putStored            atomic.Uint64
	putRejected          atomic.Uint64
	badRequests          atomic.Uint64
	bytesRead            atomic.Uint64
	bytesWritten         atomic.Uint64
}

// New returns a Server over disk.
func New(disk *cache.Disk) *Server {
	return &Server{disk: disk, start: time.Now()}
}

// Disk returns the backing store.
func (s *Server) Disk() *cache.Disk { return s.disk }

// Handler returns the server's HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	// "GET" patterns also match HEAD in net/http's mux; handleGet
	// dispatches on the method.
	mux.HandleFunc("GET "+cache.RecordPathPrefix+"{key}", s.handleGet)
	mux.HandleFunc("PUT "+cache.RecordPathPrefix+"{key}", s.handlePut)
	mux.HandleFunc("GET "+cache.HealthPathRemote, s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// key parses the digest path segment, answering 400 itself on failure.
func (s *Server) key(w http.ResponseWriter, r *http.Request) (contenthash.Digest, bool) {
	d, ok := contenthash.ParseDigest(r.PathValue("key"))
	if !ok {
		s.badRequests.Add(1)
		http.Error(w, "bad digest: want 32 hex characters", http.StatusBadRequest)
	}
	return d, ok
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	key, ok := s.key(w, r)
	if !ok {
		return
	}
	if r.Method == http.MethodHead {
		if s.disk.HasRecord(key) {
			s.headHits.Add(1)
			w.WriteHeader(http.StatusOK)
		} else {
			s.headMisses.Add(1)
			w.WriteHeader(http.StatusNotFound)
		}
		return
	}
	rec, found := s.disk.GetRecord(key)
	if !found {
		s.getMisses.Add(1)
		http.Error(w, "no record", http.StatusNotFound)
		return
	}
	s.getHits.Add(1)
	s.bytesWritten.Add(uint64(len(rec)))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(rec)
}

func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) {
	key, ok := s.key(w, r)
	if !ok {
		return
	}
	rec, err := io.ReadAll(http.MaxBytesReader(w, r.Body, cache.MaxRecordBytes))
	if err != nil {
		s.badRequests.Add(1)
		// 413 is reserved for oversize — a permanent refusal the client
		// must not retry. Any other read failure (client abort mid-body,
		// connection reset) says nothing about the record.
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, "record too large", http.StatusRequestEntityTooLarge)
		} else {
			http.Error(w, "unreadable request body", http.StatusBadRequest)
		}
		return
	}
	s.bytesRead.Add(uint64(len(rec)))
	// Full validation — framing, crc AND codec payload — so the store
	// only ever holds records any fleet member can decode. crc alone
	// would accept a well-framed payload of garbage.
	if _, err := cache.DecodeRecord(rec); err != nil {
		s.putRejected.Add(1)
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	if err := s.disk.PutRecord(key, rec); err != nil {
		s.putRejected.Add(1)
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	s.putStored.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	st := s.disk.Stats()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"status":  "ok",
		"entries": st.Entries,
		"bytes":   st.Bytes,
		"hits":    s.getHits.Load(),
		"misses":  s.getMisses.Load(),
		"stored":  s.putStored.Load(),
	})
}

// handleMetrics emits the cacheserver's Prometheus families: request
// outcomes by method, wire volume, and the backing disk store's
// counters — including the corrupt-record quarantine count, which is
// how a fleet notices records rotting on the shared tier.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := obs.NewProm(w)

	p.Family("symtago_cacheserver_uptime_seconds", "gauge", "Seconds since the cacheserver started.")
	p.Value("symtago_cacheserver_uptime_seconds", nil, time.Since(s.start).Seconds())

	p.Family("symtago_cacheserver_requests_total", "counter", "Record requests by method and outcome.")
	for _, m := range []struct {
		method, outcome string
		v               uint64
	}{
		{"get", "hit", s.getHits.Load()},
		{"get", "miss", s.getMisses.Load()},
		{"head", "hit", s.headHits.Load()},
		{"head", "miss", s.headMisses.Load()},
		{"put", "stored", s.putStored.Load()},
		{"put", "rejected", s.putRejected.Load()},
	} {
		p.Uint("symtago_cacheserver_requests_total",
			obs.Labels{"method", m.method, "outcome", m.outcome}, m.v)
	}
	p.Family("symtago_cacheserver_bad_requests_total", "counter", "Requests refused before reaching the store.")
	p.Uint("symtago_cacheserver_bad_requests_total", nil, s.badRequests.Load())
	p.Family("symtago_cacheserver_bytes_read_total", "counter", "Record bytes received in PUTs.")
	p.Uint("symtago_cacheserver_bytes_read_total", nil, s.bytesRead.Load())
	p.Family("symtago_cacheserver_bytes_written_total", "counter", "Record bytes served in GETs.")
	p.Uint("symtago_cacheserver_bytes_written_total", nil, s.bytesWritten.Load())

	st := s.disk.Stats()
	p.Family("symtago_cacheserver_disk_entries", "gauge", "Resident records in the backing store.")
	p.Uint("symtago_cacheserver_disk_entries", nil, uint64(st.Entries))
	p.Family("symtago_cacheserver_disk_bytes", "gauge", "Segment bytes of the backing store, entry prefixes and unindexed entries included.")
	p.Uint("symtago_cacheserver_disk_bytes", nil, uint64(st.Bytes))
	p.Family("symtago_cacheserver_disk_max_bytes", "gauge", "Backing store byte budget.")
	p.Uint("symtago_cacheserver_disk_max_bytes", nil, uint64(st.MaxBytes))
	p.Family("symtago_cacheserver_disk_hits_total", "counter", "Backing store hits.")
	p.Uint("symtago_cacheserver_disk_hits_total", nil, st.Hits)
	p.Family("symtago_cacheserver_disk_misses_total", "counter", "Backing store misses.")
	p.Uint("symtago_cacheserver_disk_misses_total", nil, st.Misses)
	p.Family("symtago_cacheserver_disk_evictions_total", "counter", "Records deleted by the size-bounded GC.")
	p.Uint("symtago_cacheserver_disk_evictions_total", nil, st.Evictions)
	p.Family("symtago_cacheserver_disk_corrupt_total", "counter", "Records quarantined as unreadable (truncation, crc mismatch, version skew).")
	p.Uint("symtago_cacheserver_disk_corrupt_total", nil, st.Corrupt)
}
