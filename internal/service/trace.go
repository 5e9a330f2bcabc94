package service

import (
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/obs"
	"repro/internal/whatif"
)

// instrument wraps a handler, attributing its requests to route and —
// when the collector samples the request or the client supplied an
// X-Trace-Id — recording a root span under which handlers record
// theirs (analyze adds the cache-tier spans). Traced responses carry
// the trace ID back in the X-Trace-Id response header; bodies are never
// touched, so responses stay byte-identical with tracing on or off. The
// route's counters are registered here, at mux construction, so the
// per-request observe path is lock-free.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	rm := s.metrics.register(route)
	return func(w http.ResponseWriter, r *http.Request) {
		tr, parent := s.collector.StartRequest(r)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		startedAt := time.Now()
		if tr == nil {
			// Untraced fast path: atomic counters only.
			h(rec, r)
			rm.observe(rec.status, time.Since(startedAt))
			return
		}
		w.Header().Set(obs.TraceIDHeader, tr.ID().String())
		ctx := obs.ContextWithTrace(r.Context(), tr)
		ctx = obs.ContextWithSpanID(ctx, parent)
		ctx, sp := obs.StartSpan(ctx, route)
		h(rec, r.WithContext(ctx))
		elapsed := time.Since(startedAt)
		sp.SetInt("status", int64(rec.status))
		sp.SetAttr("tenant", tenantOf(r))
		sp.End()
		s.flight.Offer(route, startedAt, elapsed, tr.Subtree(sp.ID()))
		rm.observe(rec.status, elapsed)
	}
}

// analyze runs sess's analysis for a request: the one call through
// which every route that analyses reaches a session. On a traced
// request it records this call's cache traffic — the change in the
// session's own counters — and the fleet tier's movement under the
// route's span.
func (s *Server) analyze(r *http.Request, sess *whatif.SystemSession) (*core.Analysis, error) {
	tr := obs.TraceFrom(r.Context())
	if tr == nil {
		return sess.Analyze(s.cfg.MaxIterations)
	}
	before := sess.Stats()
	var remote cache.RemoteStats
	if s.shared.Remote != nil {
		remote = s.shared.Remote.RemoteStats()
	}
	a, err := sess.Analyze(s.cfg.MaxIterations)
	after := sess.Stats()
	parent := obs.SpanIDFrom(r.Context())
	obs.RecordCache(tr, parent, after.Hits+after.ReportHits-before.Hits-before.ReportHits,
		after.Misses-before.Misses, after.SharedHits-before.SharedHits, s.shared.Store != nil)
	if s.shared.Remote != nil {
		obs.RecordRemote(tr, parent, remote, s.shared.Remote.RemoteStats())
	}
	return a, err
}

// shardCounters aggregates coordinator-side shard events across all
// distributed campaign jobs, for the Prometheus exposition.
type shardCounters struct {
	dispatched     atomic.Uint64
	done           atomic.Uint64
	failed         atomic.Uint64
	retries        atomic.Uint64
	droppedWorkers atomic.Uint64
	latencyNS      atomic.Uint64 // summed latency of completed shards
	wireBytes      atomic.Uint64 // shard response bodies as they travelled
	inflight       atomic.Int64  // dispatched minus settled (at most one per live worker)
}

func (c *shardCounters) observe(e distrib.Event) {
	switch e.Type {
	case distrib.EventDispatch:
		c.dispatched.Add(1)
		c.inflight.Add(1)
		if e.Attempt > 1 {
			c.retries.Add(1)
		}
	case distrib.EventShardDone:
		c.done.Add(1)
		c.inflight.Add(-1)
		if e.ElapsedNS > 0 {
			c.latencyNS.Add(uint64(e.ElapsedNS))
		}
		if e.Bytes > 0 {
			c.wireBytes.Add(uint64(e.Bytes))
		}
	case distrib.EventShardFailed:
		c.failed.Add(1)
		c.inflight.Add(-1)
	case distrib.EventWorkerDropped:
		c.droppedWorkers.Add(1)
	}
}

// handleTrace serves GET /v1/trace/{id}: the retained trace as Chrome
// trace_event JSON, loadable directly into chrome://tracing or
// Perfetto.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	tr := s.collector.Get(r.PathValue("id"))
	if tr == nil {
		writeErr(w, http.StatusNotFound, CodeNotFound, "unknown trace %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	tr.WriteChrome(w)
}

// handleSlowest serves GET /v1/debug/slowest: the flight recorder's
// retained slowest operations with their span trees.
func (s *Server) handleSlowest(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.flight.WriteJSON(w)
}

// handlePromMetrics serves GET /metrics, the service's metrics surface,
// in the Prometheus text exposition format: families in a fixed order
// with sorted label sets, so consecutive scrapes diff cleanly.
func (s *Server) handlePromMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := obs.NewProm(w)

	p.Family("symtago_uptime_seconds", "gauge", "Seconds since the server started.")
	p.Value("symtago_uptime_seconds", nil, time.Since(s.metrics.start).Seconds())

	routes := s.metrics.snapshot()
	p.Family("symtago_requests_total", "counter", "Requests by route.")
	for _, rm := range routes {
		p.Uint("symtago_requests_total", obs.Labels{"route", rm.Route}, rm.Count)
	}
	p.Family("symtago_request_errors_total", "counter", "Responses with status >= 400 by route.")
	for _, rm := range routes {
		p.Uint("symtago_request_errors_total", obs.Labels{"route", rm.Route}, rm.Errors)
	}
	p.Family("symtago_request_shed_total", "counter", "Requests shed (429) by route.")
	for _, rm := range routes {
		p.Uint("symtago_request_shed_total", obs.Labels{"route", rm.Route}, rm.Shed)
	}
	p.Family("symtago_request_timeouts_total", "counter", "Requests timed out or drained (503) by route.")
	for _, rm := range routes {
		p.Uint("symtago_request_timeouts_total", obs.Labels{"route", rm.Route}, rm.Timeouts)
	}
	bounds := make([]float64, len(latencyBucketBounds))
	for i, b := range latencyBucketBounds {
		bounds[i] = b.Seconds()
	}
	p.Family("symtago_request_duration_seconds", "histogram", "Request latency by route.")
	for _, rm := range routes {
		p.Histogram("symtago_request_duration_seconds", obs.Labels{"route", rm.Route},
			bounds, rm.Buckets, float64(rm.DurNanos)/1e9)
	}

	queued, executing, tenants := s.adm.snapshot()
	p.Family("symtago_admission_queued", "gauge", "Requests waiting for a worker slot.")
	p.Uint("symtago_admission_queued", nil, uint64(queued))
	p.Family("symtago_admission_executing", "gauge", "Requests holding a worker slot.")
	p.Uint("symtago_admission_executing", nil, uint64(executing))
	p.Family("symtago_admission_tenants", "gauge", "Tenants with a live token bucket.")
	p.Uint("symtago_admission_tenants", nil, uint64(tenants))
	p.Family("symtago_admission_max_clients", "gauge", "Worker slot capacity.")
	p.Uint("symtago_admission_max_clients", nil, uint64(s.cfg.MaxClients))
	p.Family("symtago_admission_queue_depth", "gauge", "Admission queue capacity.")
	p.Uint("symtago_admission_queue_depth", nil, uint64(s.cfg.QueueDepth))
	p.Family("symtago_draining", "gauge", "1 while the admission gate is closed for drain.")
	draining := uint64(0)
	if s.adm.draining.Load() {
		draining = 1
	}
	p.Uint("symtago_draining", nil, draining)

	tc := s.adm.snapshotTenants()
	p.Family("symtago_tenant_requests_total", "counter", "Application requests by tenant.")
	for _, t := range obs.SortedKeys(tc) {
		p.Uint("symtago_tenant_requests_total", obs.Labels{"tenant", t}, tc[t].requests)
	}
	p.Family("symtago_tenant_shed_total", "counter", "Requests shed by tenant.")
	for _, t := range obs.SortedKeys(tc) {
		p.Uint("symtago_tenant_shed_total", obs.Labels{"tenant", t}, tc[t].shed)
	}

	// Cache tiers, one handle each: the memo LRU, then the shared
	// level's disk and fleet tiers when configured.
	type tier struct {
		name string
		cs   cache.Stats
	}
	tiers := []tier{{"l1", s.lru.Stats()}}
	if s.shared.Disk != nil {
		tiers = append(tiers, tier{"l2", s.shared.Disk.Stats()})
	}
	if s.shared.Remote != nil {
		tiers = append(tiers, tier{"remote", s.shared.Remote.Stats()})
	}
	for _, f := range []struct {
		name, typ, help string
		v               func(cache.Stats) uint64
	}{
		{"symtago_cache_hits_total", "counter", "Cache hits by tier.", func(c cache.Stats) uint64 { return c.Hits }},
		{"symtago_cache_misses_total", "counter", "Cache misses by tier.", func(c cache.Stats) uint64 { return c.Misses }},
		{"symtago_cache_evictions_total", "counter", "Cache evictions by tier.", func(c cache.Stats) uint64 { return c.Evictions }},
		{"symtago_cache_corrupt_total", "counter", "Cache records dropped as unreadable by tier.", func(c cache.Stats) uint64 { return c.Corrupt }},
		{"symtago_cache_skipped_total", "counter", "Cache puts of values the disk codec does not carry by tier.", func(c cache.Stats) uint64 { return c.Skipped }},
		{"symtago_cache_entries", "gauge", "Resident cache entries by tier.", func(c cache.Stats) uint64 { return uint64(c.Entries) }},
		{"symtago_cache_bytes", "gauge", "Resident cache bytes by tier (disk tier only).", func(c cache.Stats) uint64 { return uint64(c.Bytes) }},
		{"symtago_cache_max_bytes", "gauge", "Cache byte budget by tier (disk tier only).", func(c cache.Stats) uint64 { return uint64(c.MaxBytes) }},
	} {
		p.Family(f.name, f.typ, f.help)
		for _, t := range tiers {
			p.Uint(f.name, obs.Labels{"tier", t.name}, f.v(t.cs))
		}
	}
	if s.shared.Remote != nil {
		s.promRemote(p)
	}

	reg := s.reg.Stats()
	sessHits := reg.Sessions.Hits + reg.Sessions.ReportHits
	p.Family("symtago_sessions_active", "gauge", "Live what-if sessions.")
	p.Uint("symtago_sessions_active", nil, uint64(reg.Active))
	p.Family("symtago_sessions_tenants", "gauge", "Tenants holding sessions.")
	p.Uint("symtago_sessions_tenants", nil, uint64(reg.Tenants))
	p.Family("symtago_sessions_created_total", "counter", "Sessions created.")
	p.Uint("symtago_sessions_created_total", nil, reg.Created)
	p.Family("symtago_sessions_evicted_total", "counter", "Sessions evicted (TTL).")
	p.Uint("symtago_sessions_evicted_total", nil, reg.Evicted)
	p.Family("symtago_sessions_quota_evicted_total", "counter", "Sessions evicted by tenant quota.")
	p.Uint("symtago_sessions_quota_evicted_total", nil, reg.QuotaEvicted)
	p.Family("symtago_session_cache_hits_total", "counter", "Session memo hits (per-message plus whole-report).")
	p.Uint("symtago_session_cache_hits_total", nil, sessHits)
	p.Family("symtago_session_cache_misses_total", "counter", "Session memo misses.")
	p.Uint("symtago_session_cache_misses_total", nil, reg.Sessions.Misses)

	p.Family("symtago_shard_dispatch_total", "counter", "Shard attempts dispatched to workers (coordinator side).")
	p.Uint("symtago_shard_dispatch_total", nil, s.shardObs.dispatched.Load())
	p.Family("symtago_shard_done_total", "counter", "Shards completed and folded (coordinator side).")
	p.Uint("symtago_shard_done_total", nil, s.shardObs.done.Load())
	p.Family("symtago_shard_failed_total", "counter", "Shard attempts failed (coordinator side).")
	p.Uint("symtago_shard_failed_total", nil, s.shardObs.failed.Load())
	p.Family("symtago_shard_retries_total", "counter", "Shard attempts beyond the first (coordinator side).")
	p.Uint("symtago_shard_retries_total", nil, s.shardObs.retries.Load())
	p.Family("symtago_shard_dropped_workers_total", "counter", "Workers retired after consecutive failures.")
	p.Uint("symtago_shard_dropped_workers_total", nil, s.shardObs.droppedWorkers.Load())
	p.Family("symtago_shard_latency_seconds_sum", "counter", "Summed latency of completed shards.")
	p.Value("symtago_shard_latency_seconds_sum", nil, float64(s.shardObs.latencyNS.Load())/1e9)
	p.Family("symtago_shard_wire_bytes_total", "counter", "Shard response bytes as they travelled (post-compression, coordinator side).")
	p.Uint("symtago_shard_wire_bytes_total", nil, s.shardObs.wireBytes.Load())
	p.Family("symtago_shard_inflight", "gauge", "Shards currently in flight, at most one per live worker.")
	p.Value("symtago_shard_inflight", nil, float64(s.shardObs.inflight.Load()))
	p.Family("symtago_worker_shards_served_total", "counter", "Shards computed by this process's worker endpoint.")
	p.Uint("symtago_worker_shards_served_total", nil, s.worker.ShardsServed())
	p.Family("symtago_worker_rows_served_total", "counter", "Rows computed by this process's worker endpoint.")
	p.Uint("symtago_worker_rows_served_total", nil, s.worker.RowsServed())

	s.jobsMu.Lock()
	states := map[string]int{}
	for _, cj := range s.jobs {
		states[cj.stateNow()]++
	}
	s.jobsMu.Unlock()
	p.Family("symtago_campaign_jobs", "gauge", "Campaign jobs by state.")
	for _, state := range []string{"running", "done", "failed", "cancelled"} {
		p.Uint("symtago_campaign_jobs", obs.Labels{"state", state}, uint64(states[state]))
	}

	p.Family("symtago_traces_retained", "gauge", "Traces held for GET /v1/trace/{id}.")
	p.Uint("symtago_traces_retained", nil, uint64(s.collector.Len()))
	p.Family("symtago_flight_offered_total", "counter", "Operations offered to the flight recorder.")
	p.Uint("symtago_flight_offered_total", nil, s.flight.Offered())
}

// promRemote emits the fleet-tier client families: lookup outcomes,
// the write-behind pipeline, the circuit breaker's state and history,
// and the fetch-latency histogram.
func (s *Server) promRemote(p *obs.Prom) {
	rs := s.shared.Remote.RemoteStats()
	p.Family("symtago_remote_cache_gets_total", "counter", "Lookups reaching the remote tier.")
	p.Uint("symtago_remote_cache_gets_total", nil, rs.Gets)
	p.Family("symtago_remote_cache_errors_total", "counter", "Remote transport failures and unexpected statuses.")
	p.Uint("symtago_remote_cache_errors_total", nil, rs.Errors)
	p.Family("symtago_remote_cache_retries_total", "counter", "Remote fetch re-attempts after a failure.")
	p.Uint("symtago_remote_cache_retries_total", nil, rs.Retries)
	p.Family("symtago_remote_cache_degraded_total", "counter", "Lookups answered all-miss because the breaker was open.")
	p.Uint("symtago_remote_cache_degraded_total", nil, rs.Degraded)
	p.Family("symtago_remote_cache_collapsed_total", "counter", "Concurrent duplicate lookups folded into another flight's fetch.")
	p.Uint("symtago_remote_cache_collapsed_total", nil, rs.Collapsed)
	p.Family("symtago_remote_cache_puts_total", "counter", "Write-behind PUTs by outcome.")
	p.Uint("symtago_remote_cache_puts_total", obs.Labels{"outcome", "queued"}, rs.PutsQueued)
	p.Uint("symtago_remote_cache_puts_total", obs.Labels{"outcome", "sent"}, rs.PutsSent)
	p.Uint("symtago_remote_cache_puts_total", obs.Labels{"outcome", "dropped"}, rs.PutsDropped)
	p.Uint("symtago_remote_cache_puts_total", obs.Labels{"outcome", "error"}, rs.PutErrors)
	p.Family("symtago_remote_cache_put_queue_len", "gauge", "Current write-behind backlog.")
	p.Uint("symtago_remote_cache_put_queue_len", nil, uint64(rs.QueueLen))
	p.Family("symtago_remote_cache_breaker_state", "gauge", "Circuit breaker state (0 closed, 1 half-open, 2 open).")
	p.Uint("symtago_remote_cache_breaker_state", nil, uint64(rs.Breaker))
	p.Family("symtago_remote_cache_breaker_opens_total", "counter", "Closed-to-open breaker transitions.")
	p.Uint("symtago_remote_cache_breaker_opens_total", nil, rs.BreakerOpens)
	lb := cache.RemoteLatencyBounds()
	bounds := make([]float64, len(lb))
	for i, b := range lb {
		bounds[i] = b.Seconds()
	}
	p.Family("symtago_remote_cache_fetch_seconds", "histogram", "Remote fetch latency (one observation per served lookup).")
	p.Histogram("symtago_remote_cache_fetch_seconds", nil, bounds, rs.LatencyBuckets, float64(rs.LatencySumNS)/1e9)
}
