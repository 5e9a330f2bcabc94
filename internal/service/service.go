package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/whatif"
)

// Config parameterises a Server. The zero value serves with defaults.
type Config struct {
	// StoreCapacity bounds the shared what-if memo store in cost units
	// (<= 0 selects cache.DefaultCapacity).
	StoreCapacity int
	// SessionTTL is the idle lifetime of persistent sessions (<= 0
	// selects whatif.DefaultSessionTTL).
	SessionTTL time.Duration
	// Workers bounds each analysis fan-out (<= 0 selects GOMAXPROCS).
	// Responses are bit-identical for every worker count.
	Workers int
	// MaxBodyBytes caps uploaded specs and change scripts (default 1 MiB).
	MaxBodyBytes int64

	// MaxClients bounds the requests executing concurrently (the worker
	// slots; 0 selects 2x GOMAXPROCS).
	MaxClients int
	// QueueDepth bounds the requests waiting for a slot; beyond it load
	// is shed with 429 + Retry-After (0 selects 256).
	QueueDepth int
	// TenantRate is each tenant's token-bucket refill in requests per
	// second (0 selects 250; negative disables rate limiting).
	TenantRate float64
	// TenantBurst is the bucket depth (0 selects 2x TenantRate).
	TenantBurst int
	// TenantQuota bounds the live sessions per tenant; at the quota a
	// tenant's new session evicts its own oldest idle one (0 selects
	// 64; negative disables the quota).
	TenantQuota int
	// RequestTimeout is the per-request budget, queue wait included; on
	// expiry the client gets a structured 503 (0 selects 30s).
	RequestTimeout time.Duration
	// MaxCampaignScenarios caps the corpus size a campaign upload may
	// request (0 selects 20000; negative disables the cap).
	MaxCampaignScenarios int

	// CacheDir, when non-empty, backs the analysis store with an
	// on-disk content-addressed second level: converged results survive
	// restarts and are shared with campaign scenarios and the shard
	// worker endpoint. The disk level never changes responses or
	// session statistics — it only accelerates recomputation.
	CacheDir string
	// CacheMaxBytes bounds the disk level (<= 0 selects
	// cache.DefaultDiskBytes).
	CacheMaxBytes int64
	// WorkerAddrs, when non-empty, runs campaigns distributed: the
	// server coordinates shards over these worker base URLs (symtago
	// worker processes, or other serve instances — every server mounts
	// POST /v1/shards). Reports stay byte-identical to local runs.
	WorkerAddrs []string
	// ShardSize bounds scenarios per distributed shard (<= 0 selects
	// campaign.DefaultShardSize).
	ShardSize int
	// ShardTimeout is the per-attempt deadline of one shard (<= 0
	// selects the distrib default).
	ShardTimeout time.Duration

	// TraceSample is the fraction of unsolicited requests traced
	// (0 selects obs.DefaultSampleRate; negative disables sampling).
	// Requests carrying an X-Trace-Id header are always traced, and
	// responses and reports are byte-identical traced or not.
	TraceSample float64
	// TraceBuffer bounds the traces retained for GET /v1/trace/{id}
	// (<= 0 selects obs.DefaultTraceBuffer).
	TraceBuffer int
	// FlightSlowest sizes the flight recorder — the N slowest
	// operations kept for GET /v1/debug/slowest (0 selects
	// obs.DefaultFlightSlowest; negative disables the recorder).
	FlightSlowest int
}

func (c Config) withDefaults() Config {
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxClients <= 0 {
		c.MaxClients = 2 * runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.TenantRate == 0 {
		c.TenantRate = 250
	}
	if c.TenantBurst <= 0 {
		c.TenantBurst = int(2 * c.TenantRate)
		if c.TenantBurst < 1 {
			c.TenantBurst = 1
		}
	}
	if c.TenantQuota == 0 {
		c.TenantQuota = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxCampaignScenarios == 0 {
		c.MaxCampaignScenarios = 20000
	}
	if c.TraceSample == 0 {
		c.TraceSample = obs.DefaultSampleRate
	}
	return c
}

// Server is the long-running analysis service: it owns the shared
// what-if store, the session registry and the campaign job table, and
// serves the /v1 API behind the admission layer. Create with New,
// expose with Handler.
type Server struct {
	cfg       Config
	lru       *cache.LRU  // the memo's in-process level
	store     cache.Store // session/analyze memo store (lru, or Tiered over disk)
	disk      *cache.Disk // the disk L2 under store; nil without CacheDir
	reg       *whatif.Registry
	metrics   *metrics
	adm       *admission
	worker    *distrib.Worker
	collector *obs.Collector
	flight    *obs.FlightRecorder // nil when FlightSlowest < 0
	mux       *http.ServeMux

	// shardStats folds the coordinator events of every distributed
	// campaign job for the symtago_shard_* families.
	shardMu    sync.Mutex
	shardStats distrib.Stats

	ctx    context.Context // parent of all campaign jobs
	cancel context.CancelFunc

	jobsMu  sync.Mutex
	jobs    map[string]*campaignJob
	nextJob int64
}

// New returns a ready-to-serve Server. It fails only when a configured
// CacheDir cannot be opened.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	// The memo LRU sits on top of the disk L2. Session counters see
	// only its hits, so responses stay byte-identical for any cache
	// state.
	lru := cache.NewLRU(cfg.StoreCapacity)
	var store cache.Store = lru
	var disk *cache.Disk
	if cfg.CacheDir != "" {
		var err error
		if disk, err = cache.NewDisk(cfg.CacheDir, cfg.CacheMaxBytes); err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
		store = cache.NewTiered(lru, disk)
	}
	ctx, cancel := context.WithCancel(context.Background())
	reg := whatif.NewRegistry(cfg.SessionTTL)
	if cfg.TenantQuota > 0 {
		reg.SetTenantQuota(cfg.TenantQuota)
	}
	var flight *obs.FlightRecorder
	if cfg.FlightSlowest >= 0 {
		flight = obs.NewFlightRecorder(cfg.FlightSlowest)
	}
	s := &Server{
		cfg:       cfg,
		lru:       lru,
		store:     store,
		disk:      disk,
		reg:       reg,
		metrics:   newMetrics(),
		adm:       newAdmission(cfg.MaxClients, cfg.QueueDepth, cfg.TenantRate, cfg.TenantBurst),
		collector: obs.NewCollector(cfg.TraceSample, cfg.TraceBuffer),
		flight:    flight,
		ctx:       ctx,
		cancel:    cancel,
		jobs:      map[string]*campaignJob{},
	}
	s.worker = distrib.NewWorker(distrib.WorkerConfig{Workers: cfg.Workers, Cache: s.l2()})
	mux := http.NewServeMux()
	// Application routes pass the admission chain; operational routes
	// (health, metrics, shards) bypass it — health and metrics must
	// answer when the service is saturated, and shard deadlines belong
	// to the coordinating peer, not the local admission budget.
	route := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.instrument(pattern, s.admitted(h)))
	}
	ops := func(pattern string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.instrument(pattern, h))
	}
	ops("GET /v1/healthz", s.handleHealthz)
	ops("GET /metrics", s.handlePromMetrics)
	ops("GET /v1/trace/{id}", s.handleTrace)
	ops("GET /v1/debug/slowest", s.handleSlowest)
	ops("POST "+distrib.ShardPath, s.worker.ShardHandler())
	route("POST /v1/analyze", s.handleAnalyze)
	route("POST /v1/simulate", s.handleSimulate)
	route("POST /v1/sessions", s.handleSessionCreate)
	route("GET /v1/sessions/{id}", s.handleSessionInfo)
	route("GET /v1/sessions/{id}/analysis", s.handleSessionAnalysis)
	route("POST /v1/sessions/{id}/changes", s.handleSessionChanges)
	route("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	route("POST /v1/campaigns", s.handleCampaignCreate)
	// Status dispatches on the request: the SSE stream waits
	// server-side and bypasses admission (a watcher must not hold a
	// worker slot or be killed by the request deadline); the plain JSON
	// snapshot is admitted like any application request.
	mux.HandleFunc("GET /v1/campaigns/{id}", s.instrument("GET /v1/campaigns/{id}",
		s.dispatchCampaignStatus))
	route("GET /v1/campaigns/{id}/report", s.handleCampaignReport)
	route("POST /v1/campaigns/{id}/cancel", s.handleCampaignCancel)
	route("POST /v1/campaigns/{id}/resume", s.handleCampaignResume)
	route("DELETE /v1/campaigns/{id}", s.handleCampaignDelete)
	s.mux = mux
	return s, nil
}

// Handler returns the service's HTTP handler. Error responses that
// escape the handlers (the mux's own 404/405) are rewritten into the
// uniform JSON error body.
func (s *Server) Handler() http.Handler { return jsonFallback(s.mux) }

// Close cancels every running campaign job and closes the disk L2's
// segment files. In-flight requests finish normally, a disk lookup
// among them as a miss; the owning http.Server handles connection
// shutdown.
func (s *Server) Close() {
	s.cancel()
	if s.disk != nil {
		s.disk.Close()
	}
}

// l2 returns the disk L2 as a cache.Store: nil without CacheDir, never
// a typed-nil *cache.Disk, which would read as a configured level.
func (s *Server) l2() cache.Store {
	if s.disk == nil {
		return nil
	}
	return s.disk
}

// StartDraining flips the admission gate: every subsequent application
// request is answered 503/draining while operational routes stay up.
func (s *Server) StartDraining() { s.adm.draining.Store(true) }

// Drain performs the graceful-shutdown protocol: stop admitting, let
// running campaign jobs finish until ctx expires, then cancel the
// stragglers at their next scenario boundary and — when dir is
// non-empty — checkpoint every unfinished job there as <id>.json so a
// restarted server resumes them bit-identically (RestoreCampaigns).
// It returns how many jobs were checkpointed.
func (s *Server) Drain(ctx context.Context, dir string) (checkpointed int, err error) {
	s.StartDraining()

	running := func() []*campaignJob {
		s.jobsMu.Lock()
		defer s.jobsMu.Unlock()
		var rs []*campaignJob
		for _, cj := range s.jobs {
			if cj.stateNow() == "running" {
				rs = append(rs, cj)
			}
		}
		return rs
	}

	// Phase 1: wait for jobs to finish on their own within the budget.
	for len(running()) > 0 {
		select {
		case <-ctx.Done():
			// Phase 2: cancel the stragglers; each stops at its next
			// scenario boundary with every completed row preserved.
			for _, cj := range running() {
				cj.mu.Lock()
				if cj.cancel != nil {
					cj.cancel()
				}
				cj.mu.Unlock()
			}
		case <-time.After(10 * time.Millisecond):
		}
	}

	// Phase 3: checkpoint everything that did not finish.
	if dir != "" {
		s.jobsMu.Lock()
		jobs := make([]*campaignJob, 0, len(s.jobs))
		for _, cj := range s.jobs {
			jobs = append(jobs, cj)
		}
		s.jobsMu.Unlock()
		sort.Slice(jobs, func(i, j int) bool { return jobs[i].id < jobs[j].id })
		for _, cj := range jobs {
			if cj.stateNow() == "done" {
				continue
			}
			if werr := writeCheckpoint(dir, cj); werr != nil && err == nil {
				err = werr
			} else if werr == nil {
				checkpointed++
			}
		}
	}
	s.cancel()
	return checkpointed, err
}

// writeCheckpoint persists one job under dir/<id>.json.
func writeCheckpoint(dir string, cj *campaignJob) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, cj.id+".json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := cj.job.Checkpoint(f); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	return f.Close()
}

// RestoreCampaigns loads every <id>.json checkpoint under dir written
// by a previous Drain, registers the jobs under fresh ids, starts them
// over their pending scenarios and removes the consumed files. The
// eventual reports are bit-identical to uninterrupted runs.
func (s *Server) RestoreCampaigns(dir string) (restored int, err error) {
	entries, rerr := os.ReadDir(dir)
	if rerr != nil {
		if os.IsNotExist(rerr) {
			return 0, nil
		}
		return 0, rerr
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".json" {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		path := filepath.Join(dir, name)
		f, oerr := os.Open(path)
		if oerr != nil {
			if err == nil {
				err = oerr
			}
			continue
		}
		job, jerr := campaign.RestoreJob(f)
		f.Close()
		if jerr != nil {
			if err == nil {
				err = fmt.Errorf("restore %s: %w", name, jerr)
			}
			continue
		}
		s.registerJob(job, nil, 0)
		restored++
		os.Remove(path)
	}
	return restored, err
}

// registerJob assigns the next id, starts the job and publishes it.
// Start happens before publication, so no observer can see a stateless
// job (a cancel racing the create would otherwise be silently lost).
// With WorkerAddrs configured the job runs distributed; resume reuses
// the same runner, so a resumed campaign fans out again. When tr is a
// recording trace (the creating request was traced), the job runs
// under it with parent as the root — the trace outlives the request
// and collects the coordinator's and workers' spans.
func (s *Server) registerJob(job *campaign.Job, tr *obs.Trace, parent uint64) *campaignJob {
	s.jobsMu.Lock()
	s.nextJob++
	cj := &campaignJob{id: fmt.Sprintf("c%d", s.nextJob), job: job, watch: make(chan struct{})}
	s.jobsMu.Unlock()
	traced := func(ctx context.Context) context.Context {
		if tr == nil {
			return ctx
		}
		return obs.ContextWithSpanID(obs.ContextWithTrace(ctx, tr), parent)
	}
	if len(s.cfg.WorkerAddrs) > 0 {
		cj.distributed = true
		cj.run = func(ctx context.Context) (*campaign.Report, error) {
			cj.mu.Lock()
			cj.shardTotal = len(job.PendingRanges(s.cfg.ShardSize))
			cj.workers = len(s.cfg.WorkerAddrs)
			cj.stats = distrib.Stats{}
			cj.bump()
			cj.mu.Unlock()
			rep, _, err := distrib.RunStats(traced(ctx), job, distrib.Options{
				Workers:      s.cfg.WorkerAddrs,
				ShardSize:    s.cfg.ShardSize,
				ShardTimeout: s.cfg.ShardTimeout,
				OnEvent: func(e distrib.Event) {
					s.shardMu.Lock()
					s.shardStats.Add(e)
					s.shardMu.Unlock()
					cj.record(e)
				},
			})
			return rep, err
		}
	} else {
		cj.run = func(ctx context.Context) (*campaign.Report, error) {
			return job.Run(traced(ctx))
		}
	}
	cj.mu.Lock()
	cj.start(s.ctx)
	cj.mu.Unlock()
	s.jobsMu.Lock()
	s.jobs[cj.id] = cj
	s.jobsMu.Unlock()
	return cj
}

// writeJSON marshals v with a trailing newline (curl-friendly) and a
// deterministic byte sequence for a given value.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		// Wire types are marshal-safe by construction; this is a bug,
		// but even bugs answer in the uniform JSON shape.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprintf(w, "{\"error\":%q,\"code\":%q}\n", err.Error(), CodeInternal)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}

// writeErr emits the uniform JSON error body: a human-readable message
// plus the machine-readable code.
func writeErr(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...), Code: code})
}

// queryInt parses an integer query parameter with a default.
func queryInt(r *http.Request, key string, def int) (int, error) {
	v := r.URL.Query().Get(key)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("query %s: %v", key, err)
	}
	return n, nil
}

// queryDuration parses a duration query parameter with a default.
func queryDuration(r *http.Request, key string, def time.Duration) (time.Duration, error) {
	v := r.URL.Query().Get(key)
	if v == "" {
		return def, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0, fmt.Errorf("query %s: %v", key, err)
	}
	return d, nil
}

// parseSpecBody parses an uploaded corpus spec (the system wire
// format).
func parseSpecBody(body []byte) (scenario.Spec, error) {
	return scenario.ParseSpec(bytes.NewReader(body))
}

// buildScenario materialises scenario `index` of the uploaded spec.
// Scenario plans are derived per index (identical to the scenario's
// position in any corpus of the same spec), so the cost is one plan
// regardless of the index or the spec's count.
func buildScenario(body []byte, index int) (*core.System, []whatif.SystemChange, error) {
	if index < 0 {
		return nil, nil, fmt.Errorf("index %d must be non-negative", index)
	}
	sp, err := parseSpecBody(body)
	if err != nil {
		return nil, nil, err
	}
	sc, err := scenario.GenerateOne(sp, index)
	if err != nil {
		return nil, nil, err
	}
	return sc.Build()
}
