package obs

import "time"

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
