package obs

import (
	"time"

	"repro/internal/cache"
)

// RecordCache records a traced operation's cache traffic, as the
// what-if session memo counted it, as spans under parent: "cache.l1"
// with the in-process level's hits and misses and, when the session
// has a shared level, "cache.l2" with the misses it answered (hits) and
// the rest (misses). Idle traffic records nothing; a nil trace is a
// no-op.
func RecordCache(tr *Trace, parent uint64, hits, misses, sharedHits uint64, shared bool) {
	if tr == nil || hits+misses == 0 {
		return
	}
	now := time.Now()
	tr.record(Span{ID: tr.newSpanID(), Parent: parent, Name: "cache.l1", Start: now, Attrs: []Attr{
		{Key: "hits", Value: utoa(hits)},
		{Key: "misses", Value: utoa(misses)},
	}})
	if shared {
		tr.record(Span{ID: tr.newSpanID(), Parent: parent, Name: "cache.l2", Start: now, Attrs: []Attr{
			{Key: "hits", Value: utoa(sharedHits)},
			{Key: "misses", Value: utoa(misses - sharedHits)},
		}})
	}
}

// RecordRemote records the fleet tier's movement between two of its
// RemoteStats snapshots as a "cache.remote" span under parent, when
// lookups reached the tier or it degraded any. The counters are
// process-global, so the span also counts operations that overlapped
// this one. A nil trace is a no-op.
func RecordRemote(tr *Trace, parent uint64, start, end cache.RemoteStats) {
	gets := end.Gets - start.Gets
	if tr == nil || (gets == 0 && end.Degraded == start.Degraded) {
		return
	}
	tr.record(Span{ID: tr.newSpanID(), Parent: parent, Name: "cache.remote", Start: time.Now(), Attrs: []Attr{
		{Key: "gets", Value: utoa(gets)},
		{Key: "hits", Value: utoa(end.Hits - start.Hits)},
		{Key: "errors", Value: utoa(end.Errors - start.Errors)},
		{Key: "degraded", Value: utoa(end.Degraded - start.Degraded)},
		{Key: "breaker", Value: end.Breaker.String()},
	}})
}
