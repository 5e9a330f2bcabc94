package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"
)

// progressPollInterval is the fallback re-check period for progress
// that does not bump the job's change sequence (per-row completions of
// a local run are recorded by the campaign job itself, not the
// service wrapper).
const progressPollInterval = 150 * time.Millisecond

// dispatchCampaignStatus routes GET /v1/campaigns/{id} by request
// shape: "Accept: text/event-stream" opens an SSE stream, anything
// else is the admitted JSON snapshot. The stream bypasses admission
// deliberately — a watcher parked for minutes must not pin a worker
// slot or trip the request deadline; it is read-only and ends with the
// job, so it cannot starve the service.
func (s *Server) dispatchCampaignStatus(w http.ResponseWriter, r *http.Request) {
	if strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		s.handleCampaignStream(w, r)
		return
	}
	s.admitted(s.handleCampaignStatus)(w, r)
}

// handleCampaignStream serves the campaign as a server-sent event
// stream: a `status` event on every observable change (and at least
// the initial snapshot), a `shard` event per coordinator event of a
// distributed run, and a final `status` event in a terminal state
// before the stream closes.
func (s *Server) handleCampaignStream(w http.ResponseWriter, r *http.Request) {
	cj, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusNotAcceptable, CodeBadRequest,
			"event streams need a flushable connection")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	ticker := time.NewTicker(progressPollInterval)
	defer ticker.Stop()
	var evCursor uint64
	first := true
	var last CampaignStatus
	for {
		ch := cj.watchCh()
		events, next := cj.eventsSince(evCursor)
		evCursor = next
		for i := range events {
			writeSSE(w, "shard", &events[i])
		}
		st := cj.status()
		// Seq covers every bumped change (state transitions, shard
		// bookkeeping); Done covers per-row progress of local runs,
		// which the campaign job records without bumping.
		if first || st.Seq != last.Seq || st.Done != last.Done || st.State != last.State {
			writeSSE(w, "status", st)
			first = false
			last = st
		}
		flusher.Flush()
		if st.State != "running" {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-ch:
		case <-ticker.C:
		}
	}
}

// writeSSE emits one server-sent event with a JSON payload.
func writeSSE(w http.ResponseWriter, event string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}
