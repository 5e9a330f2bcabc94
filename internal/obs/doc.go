// Package obs is the zero-external-dependency observability layer:
// structured tracing with 128-bit trace IDs propagated across process
// boundaries via HTTP headers, a Chrome trace_event exporter, a
// Prometheus-text-format writer, a flight recorder keeping the N
// slowest operations with their span trees, and recorders that turn a
// what-if session's cache counters into spans.
//
// The paper's core problem is diagnosing integration failures across
// many suppliers' opaque components; the reproduction's stack spans the
// same kind of boundary (service → coordinator → shard workers → cache
// tiers). obs makes one request followable through all of them.
//
// The hard invariant, shared with the cache pinned-stats contract: the
// layer is strictly an observer. All responses, reports and rows are
// byte-identical with tracing on or off — spans travel in separate
// fields and separate endpoints, never inside result payloads. A nil
// *Trace (and a nil *ActiveSpan, *FlightRecorder) is a valid no-op, so
// untraced hot paths pay one context lookup and nothing else.
package obs
