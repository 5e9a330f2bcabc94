package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/distrib"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/whatif"
)

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleAnalyze runs the one-shot compositional analysis of an
// uploaded spec. Repeated uploads of the same system are served from
// the shared memo store.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	index, err := queryInt(r, "index", 0)
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	sys, _, err := buildScenario(body, index)
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	sess := whatif.NewSystemSession(sys, whatif.Options{Store: s.store, Workers: s.cfg.Workers})
	a, err := s.analyze(r, sess)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, CodeAnalysisFailed, "analysis: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, summarize(a))
}

// handleSimulate cross-validates an uploaded spec: a netsim seed fan
// folded against the compositional bounds, exactly the campaign's
// per-scenario validation stage.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	index, err := queryInt(r, "index", 0)
	if err == nil {
		var seeds int
		if seeds, err = queryInt(r, "seeds", 2); err == nil && seeds <= 0 {
			err = fmt.Errorf("query seeds: %d must be positive", seeds)
		}
		if err == nil {
			var duration time.Duration
			if duration, err = queryDuration(r, "duration", 200*time.Millisecond); err == nil {
				if err = campaign.CheckSimulation(seeds, duration); err == nil {
					s.simulate(w, r, body, index, seeds, duration)
					return
				}
			}
		}
	}
	writeErr(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
}

func (s *Server) simulate(w http.ResponseWriter, r *http.Request, body []byte, index, seeds int, duration time.Duration) {
	sys, _, err := buildScenario(body, index)
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	topo, err := netsim.FromSystem(sys)
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	sess := whatif.NewSystemSession(sys, whatif.Options{Store: s.store, Workers: s.cfg.Workers})
	a, err := s.analyze(r, sess)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, CodeAnalysisFailed, "analysis: %v", err)
		return
	}
	if !a.Converged {
		writeErr(w, http.StatusUnprocessableEntity, CodeAnalysisFailed,
			"analysis did not converge; bounds are not comparable")
		return
	}
	v, err := campaign.CrossValidate(sys, a, topo, seeds, duration)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, CodeAnalysisFailed, "simulation: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, SimulateResponse{
		Runs: v.Runs, Frames: v.Frames, Violations: v.Violations,
		Losses: v.Losses, LossPredicted: v.LossPredicted(),
		MinMarginPct: marginString(v.MinMarginPct()),
	})
}

// handleSessionCreate opens a persistent what-if session on scenario
// `index` of the uploaded spec.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	s.reg.Sweep()
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	index, err := queryInt(r, "index", 0)
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	sys, _, err := buildScenario(body, index)
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	sess := whatif.NewSystemSession(sys, whatif.Options{Store: s.store, Workers: s.cfg.Workers})
	id, err := s.reg.Add(sess, tenantOf(r))
	if err != nil {
		// Quota exhausted with every session busy: the tenant must
		// release or finish work before opening another.
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, CodeSessionQuota, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, SessionCreated{
		ID: id, TTLSeconds: s.reg.TTL().Seconds(),
	})
}

// acquireSession resolves {id}, answering 404 when unknown.
func (s *Server) acquireSession(w http.ResponseWriter, r *http.Request) (*whatif.SystemSession, func(), bool) {
	s.reg.Sweep()
	id := r.PathValue("id")
	_, sp := obs.StartSpan(r.Context(), "session.acquire")
	sess, release, ok := s.reg.Acquire(id)
	sp.SetAttr("session", id)
	sp.SetBool("found", ok)
	sp.End()
	if !ok {
		writeErr(w, http.StatusNotFound, CodeNotFound, "unknown session %q", id)
		return nil, nil, false
	}
	return sess, release, true
}

func (s *Server) handleSessionAnalysis(w http.ResponseWriter, r *http.Request) {
	sess, release, ok := s.acquireSession(w, r)
	if !ok {
		return
	}
	defer release()
	a, err := s.analyze(r, sess)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, CodeAnalysisFailed, "analysis: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, summarize(a))
}

// handleSessionChanges applies an uploaded system change script and
// re-verifies incrementally — the supplier-revision hot path.
func (s *Server) handleSessionChanges(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	changes, err := whatif.ParseSystemScript(bytes.NewReader(body))
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	if len(changes) == 0 {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "empty change script")
		return
	}
	sess, release, ok := s.acquireSession(w, r)
	if !ok {
		return
	}
	defer release()
	if err := sess.Apply(changes...); err != nil {
		// Addressing errors: part of the script may have applied; the
		// client should treat the session as dirty and re-create it.
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "apply: %v", err)
		return
	}
	a, err := s.analyze(r, sess)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, CodeAnalysisFailed, "analysis: %v", err)
		return
	}
	resp := ChangesApplied{Applied: len(changes), Analysis: summarize(a)}
	for _, c := range changes {
		resp.Changes = append(resp.Changes, c.String())
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSessionInfo(w http.ResponseWriter, r *http.Request) {
	sess, release, ok := s.acquireSession(w, r)
	if !ok {
		return
	}
	st := sess.Stats()
	release()
	hits := st.Hits + st.ReportHits
	rate := 0.0
	if total := hits + st.Misses; total > 0 {
		rate = 100 * float64(hits) / float64(total)
	}
	writeJSON(w, http.StatusOK, SessionInfo{
		ID: r.PathValue("id"), ReportHits: st.ReportHits,
		Hits: st.Hits, Misses: st.Misses, HitRatePct: rate,
	})
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	s.reg.Sweep()
	if !s.reg.Remove(r.PathValue("id")) {
		writeErr(w, http.StatusNotFound, CodeNotFound, "unknown session %q", r.PathValue("id"))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// campaignJob tracks one async campaign job, local or distributed.
// Observers (status snapshots, SSE streams) watch it through seq/watch:
// seq increments on every observable change and watch is closed-and-
// replaced, so any number of watchers wake without polling the job.
type campaignJob struct {
	id string

	mu     sync.Mutex
	job    *campaign.Job
	run    func(ctx context.Context) (*campaign.Report, error)
	cancel context.CancelFunc
	state  string // running | done | failed | cancelled
	err    error
	report *campaign.Report

	seq   uint64
	watch chan struct{}

	// Distributed-run bookkeeping of the current run: its shard and
	// worker counts and its coordinator events, folded by stats and
	// kept in a bounded ring for SSE watchers.
	distributed bool
	shardTotal  int
	workers     int
	stats       distrib.Stats
	events      []distrib.Event
	eventsBase  uint64 // absolute index of events[0]
}

// maxJobEvents bounds the per-job shard event ring.
const maxJobEvents = 256

func (cj *campaignJob) stateNow() string {
	cj.mu.Lock()
	defer cj.mu.Unlock()
	return cj.state
}

// bump publishes an observable change. Callers hold cj.mu.
func (cj *campaignJob) bump() {
	cj.seq++
	close(cj.watch)
	cj.watch = make(chan struct{})
}

// watchCh returns the channel closed at the next observable change.
func (cj *campaignJob) watchCh() <-chan struct{} {
	cj.mu.Lock()
	defer cj.mu.Unlock()
	return cj.watch
}

// record folds one coordinator event into the job's statistics, keeps
// it for SSE watchers and wakes them. It runs on the coordinator's
// dispatch path (calls are serialised by distrib).
func (cj *campaignJob) record(e distrib.Event) {
	cj.mu.Lock()
	defer cj.mu.Unlock()
	cj.stats.Add(e)
	cj.events = append(cj.events, e)
	if len(cj.events) > maxJobEvents {
		drop := len(cj.events) - maxJobEvents
		cj.events = cj.events[drop:]
		cj.eventsBase += uint64(drop)
	}
	cj.bump()
}

// eventsSince returns the shard events with absolute index >= since
// and the absolute index one past the last returned event.
func (cj *campaignJob) eventsSince(since uint64) ([]distrib.Event, uint64) {
	cj.mu.Lock()
	defer cj.mu.Unlock()
	next := cj.eventsBase + uint64(len(cj.events))
	if since >= next {
		return nil, next
	}
	if since < cj.eventsBase {
		since = cj.eventsBase
	}
	return append([]distrib.Event(nil), cj.events[since-cj.eventsBase:]...), next
}

// start launches (or resumes) the job under a context derived from the
// server's lifetime.
func (cj *campaignJob) start(parent context.Context) {
	ctx, cancel := context.WithCancel(parent)
	cj.cancel = cancel
	cj.state = "running"
	run := cj.run
	go func() {
		rep, err := run(ctx)
		cancel()
		cj.mu.Lock()
		defer cj.mu.Unlock()
		switch {
		case err == nil:
			cj.state = "done"
			cj.report = rep
		case errors.Is(err, context.Canceled):
			cj.state = "cancelled"
		default:
			cj.state = "failed"
			cj.err = err
		}
		cj.bump()
	}()
}

// handleCampaignCreate starts an async sharded campaign over the
// uploaded spec.
func (s *Server) handleCampaignCreate(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	sp, err := parseSpecBody(body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	cfg := campaign.Config{
		Workers: s.cfg.Workers,
		// Local scenario runs stack their private LRUs on the server's
		// shared disk/remote level; a distributed run strips Cache from
		// the wire and each worker brings its own. Flight, like Cache,
		// is process-local and never travels — the recorder keeps the
		// slowest scenarios for GET /v1/debug/slowest.
		Cache:  s.shared.Store,
		Flight: s.flight,
	}
	if cfg.Seeds, err = queryInt(r, "seeds", 0); err == nil {
		if cfg.Duration, err = queryDuration(r, "duration", 0); err == nil {
			err = campaign.CheckSimulation(cfg.Seeds, cfg.Duration)
		}
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	if r.URL.Query().Get("quick") == "true" {
		sp, cfg = campaign.Quick(sp, cfg)
	}
	// Cap the corpus before generating it — a hostile spec must not be
	// able to commit the server to unbounded generation work.
	effective := sp.WithDefaults().Count
	if s.cfg.MaxCampaignScenarios > 0 && effective > s.cfg.MaxCampaignScenarios {
		writeErr(w, http.StatusBadRequest, CodeCorpusTooLarge,
			"corpus of %d scenarios exceeds the %d-scenario cap", effective, s.cfg.MaxCampaignScenarios)
		return
	}
	// The job holds only the spec: scenarios are generated as they run,
	// locally or per shard range on the workers, so the corpus is never
	// materialized on this server.
	job, err := campaign.NewSpecJob(sp, cfg)
	if err != nil {
		writeErr(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}

	cj := s.registerJob(job, obs.TraceFrom(r.Context()), obs.SpanIDFrom(r.Context()))
	writeJSON(w, http.StatusAccepted, CampaignStarted{ID: cj.id, Scenarios: job.Total()})
}

// lookupJob resolves {id}, answering 404 when unknown.
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) (*campaignJob, bool) {
	s.jobsMu.Lock()
	cj := s.jobs[r.PathValue("id")]
	s.jobsMu.Unlock()
	if cj == nil {
		writeErr(w, http.StatusNotFound, CodeNotFound, "unknown campaign %q", r.PathValue("id"))
		return nil, false
	}
	return cj, true
}

// status assembles the job's wire snapshot.
func (cj *campaignJob) status() CampaignStatus {
	done, total := cj.job.Progress()
	cj.mu.Lock()
	defer cj.mu.Unlock()
	st := CampaignStatus{ID: cj.id, State: cj.state, Done: done, Total: total, Seq: cj.seq}
	if cj.distributed {
		st.Shards = &ShardStatus{
			Total: cj.shardTotal, Done: cj.stats.Shards, Failed: cj.stats.Retries,
			Workers: cj.workers, DroppedWorkers: cj.stats.DroppedWorkers,
		}
	}
	if cj.err != nil {
		st.Error = cj.err.Error()
	}
	if cj.report != nil {
		rep := cj.report
		st.Summary = &CampaignSummary{
			Corpus:               rep.Fingerprint,
			Scenarios:            rep.Scenarios,
			Converged:            rep.Converged,
			Schedulable:          rep.Schedulable,
			SimRuns:              rep.SimRuns,
			Frames:               rep.Frames,
			Violations:           rep.Violations,
			Losses:               rep.Losses,
			LossOnlyPredicted:    rep.LossOnlyPredicted,
			MedianHitRatePct:     rep.HitRates.Median,
			FlippedUnschedulable: rep.FlippedUnschedulable,
			FlippedSchedulable:   rep.FlippedSchedulable,
		}
	}
	return st
}

func (s *Server) handleCampaignStatus(w http.ResponseWriter, r *http.Request) {
	cj, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, cj.status())
}

func (s *Server) handleCampaignReport(w http.ResponseWriter, r *http.Request) {
	cj, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	cj.mu.Lock()
	rep := cj.report
	state := cj.state
	cj.mu.Unlock()
	if rep == nil {
		writeErr(w, http.StatusConflict, CodeConflict, "campaign %s is %s; no report yet", cj.id, state)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, rep.Render())
}

func (s *Server) handleCampaignCancel(w http.ResponseWriter, r *http.Request) {
	cj, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	cj.mu.Lock()
	state := cj.state
	if state == "running" && cj.cancel != nil {
		cj.cancel()
		state = "cancelling"
	}
	cj.mu.Unlock()
	writeJSON(w, http.StatusAccepted, map[string]string{"id": cj.id, "state": state})
}

// handleCampaignDelete drops a finished job from the table so
// long-running servers do not accumulate corpora and reports; running
// jobs must be cancelled first.
func (s *Server) handleCampaignDelete(w http.ResponseWriter, r *http.Request) {
	cj, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	if cj.stateNow() == "running" {
		writeErr(w, http.StatusConflict, CodeConflict, "campaign %s is running; cancel it first", cj.id)
		return
	}
	s.jobsMu.Lock()
	delete(s.jobs, cj.id)
	s.jobsMu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// handleCampaignResume restarts a cancelled job over its pending
// scenarios — completed rows are kept, so the eventual report is
// bit-identical to an uninterrupted run.
func (s *Server) handleCampaignResume(w http.ResponseWriter, r *http.Request) {
	cj, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	cj.mu.Lock()
	defer cj.mu.Unlock()
	switch cj.state {
	case "cancelled", "failed":
		cj.err = nil
		cj.start(s.ctx)
	case "running", "done":
		// Nothing to do; report the current state.
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"id": cj.id, "state": cj.state})
}
