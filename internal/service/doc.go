// Package service is the long-running analysis endpoint of the
// reproduction: an HTTP/JSON server (surfaced as `symtago serve`) that
// keeps what-if sessions, the content-addressed memo store and
// campaign jobs alive across requests, so OEMs and suppliers replaying
// incremental K-Matrix revisions pay only for what their changes can
// reach instead of rebuilding the analysis per invocation.
//
// Endpoints (docs/service.md documents the wire format):
//
//	POST   /v1/analyze                 one-shot compositional analysis of an uploaded corpus spec
//	POST   /v1/simulate                netsim seed fan cross-validated against the bounds
//	POST   /v1/sessions                open a persistent what-if session
//	GET    /v1/sessions/{id}/analysis  current bounds of the session state
//	POST   /v1/sessions/{id}/changes   apply a system change script, re-verify incrementally
//	GET    /v1/sessions/{id}           session cache statistics
//	DELETE /v1/sessions/{id}           close the session
//	POST   /v1/campaigns               start an async sharded campaign job
//	GET    /v1/campaigns/{id}          job progress / summary
//	GET    /v1/campaigns/{id}/report   full campaign report (text)
//	POST   /v1/campaigns/{id}/cancel   stop a running job, keeping completed rows
//	POST   /v1/campaigns/{id}/resume   continue a cancelled job from its pending set
//	DELETE /v1/campaigns/{id}          drop a finished job from the table
//	GET    /v1/healthz                 liveness
//	GET    /metrics                    Prometheus text: request counts, latency histograms, cache and session counters
//
// Uploads use the scenario corpus spec (scenario.ParseSpec) as the
// system wire format and the what-if system change script
// (whatif.ParseSystemScript) as the revision wire format. Sessions are
// serialised by per-session locks and analyses are bit-deterministic
// for any cache state and worker count, so concurrent clients get
// byte-identical responses to serial execution — LoadTest (reachable
// as `symtago serve -selftest`) proves exactly that.
package service
