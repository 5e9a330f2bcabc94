package distrib

import (
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/campaign"
	"repro/internal/obs"
)

// WorkerConfig parameterises a shard worker.
type WorkerConfig struct {
	// Workers is the local analysis pool size per shard (<= 0 selects
	// GOMAXPROCS). Rows are identical for every pool size.
	Workers int
	// Cache is an optional shared second level (typically a cache.Disk)
	// stacked under each scenario's private LRU; see
	// campaign.Config.Cache for the bit-identity contract.
	Cache cache.Store
}

// Worker computes campaign shards on behalf of a coordinator. Between
// shards it keeps only its served counters and the optional shared
// analysis level: each shard's scenarios are generated from the
// request and dropped with the response.
type Worker struct {
	cfg WorkerConfig

	shardsServed atomic.Uint64
	rowsServed   atomic.Uint64
}

// gzipPool recycles response compressors: a gzip.Writer carries its
// deflate window (~800 KiB) and would otherwise be reallocated per
// shard response.
var gzipPool = sync.Pool{New: func() any { return gzip.NewWriter(io.Discard) }}

// NewWorker builds a worker.
func NewWorker(cfg WorkerConfig) *Worker {
	return &Worker{cfg: cfg}
}

// ShardsServed returns how many shards this worker has completed.
func (w *Worker) ShardsServed() uint64 { return w.shardsServed.Load() }

// RowsServed returns how many scenario rows this worker has computed.
func (w *Worker) RowsServed() uint64 { return w.rowsServed.Load() }

// ShardHandler returns just the shard-computation endpoint, for hosts
// that mount it on their own mux (the analysis service exposes it as
// an operational route).
func (w *Worker) ShardHandler() http.HandlerFunc { return w.handleShard }

// Handler returns the worker's HTTP surface: POST ShardPath computes
// a shard, GET HealthPath reports liveness and served counts.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(ShardPath, w.handleShard)
	mux.HandleFunc(HealthPath, w.handleHealth)
	return mux
}

func (w *Worker) handleHealth(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(rw, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(map[string]any{
		"status": "ok",
		"shards": w.shardsServed.Load(),
		"rows":   w.rowsServed.Load(),
	})
}

func (w *Worker) handleShard(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(rw, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var req ShardRequest
	dec := json.NewDecoder(http.MaxBytesReader(rw, r.Body, 16<<20))
	if err := dec.Decode(&req); err != nil {
		http.Error(rw, fmt.Sprintf("bad shard request: %v", err), http.StatusBadRequest)
		return
	}
	if req.Version != WireVersion {
		http.Error(rw, fmt.Sprintf("shard wire version %d, want %d", req.Version, WireVersion),
			http.StatusBadRequest)
		return
	}
	if req.Count > campaign.MaxShardSize {
		http.Error(rw, fmt.Sprintf("shard of %d scenarios exceeds the maximum %d", req.Count, campaign.MaxShardSize),
			http.StatusBadRequest)
		return
	}
	if err := campaign.CheckSimulation(req.Config.Seeds, time.Duration(req.Config.DurationNS)); err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	// A trace header means the coordinator wants this shard's execution
	// spans back. The worker records into its own standalone trace (the
	// coordinator splices it under the dispatch span by remapping IDs,
	// so the ID spaces never clash) and rows stay byte-identical: the
	// trace observes the run, it never steers it.
	ctx := r.Context()
	var wtr *obs.Trace
	if id, ok := obs.ParseID(r.Header.Get(obs.TraceIDHeader)); ok {
		wtr = obs.NewTrace(id, 0)
		ctx = obs.ContextWithTrace(ctx, wtr)
	}
	ctx, root := obs.StartSpan(ctx, "worker.shard")
	root.SetInt("start", int64(req.Start))
	root.SetInt("count", int64(req.Count))
	root.SetInt("version", int64(req.Version))

	// Refuse a range outside the corpus before any work; the shard then
	// draws each scenario as its pool slot claims it.
	spec, err := req.Corpus.Range(req.Start, req.Count)
	if err != nil {
		root.End()
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	cfg := req.Config.Campaign(w.cfg.Workers)
	cfg.Cache = w.cfg.Cache
	rows, partial, err := campaign.RunRange(ctx, spec, req.Start, req.Count, cfg)
	root.End()
	if err != nil {
		if errors.Is(err, r.Context().Err()) && r.Context().Err() != nil {
			return // coordinator gave up; nobody is reading the response
		}
		http.Error(rw, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	resp := ShardResponse{Version: WireVersion, Rows: make([]campaign.WireRow, len(rows)), Partial: partial.String()}
	for i := range rows {
		resp.Rows[i] = campaign.NewWireRow(&rows[i])
	}
	if wtr != nil {
		resp.Spans = wtr.WireSpans()
	}
	// Rows dominate the response; compress them when the requester asked
	// for it. Old coordinators interoperate either way: Go's default
	// transport advertises gzip itself and decompresses transparently.
	out := io.Writer(rw)
	rw.Header().Set("Content-Type", "application/json")
	if strings.Contains(r.Header.Get("Accept-Encoding"), "gzip") {
		rw.Header().Set("Content-Encoding", "gzip")
		gz := gzipPool.Get().(*gzip.Writer)
		gz.Reset(rw)
		defer func() {
			gz.Close()
			gzipPool.Put(gz)
		}()
		out = gz
	}
	if err := json.NewEncoder(out).Encode(&resp); err != nil {
		return // mid-body failure; coordinator sees a decode error and retries
	}
	w.shardsServed.Add(1)
	w.rowsServed.Add(uint64(len(rows)))
}
