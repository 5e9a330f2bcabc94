package obs

import (
	"testing"

	"repro/internal/cache"
)

// spanAttrs indexes a trace's spans by name, each as its attribute map.
func spanAttrs(tr *Trace) map[string]map[string]string {
	out := map[string]map[string]string{}
	for _, s := range tr.Spans() {
		m := map[string]string{}
		for _, a := range s.Attrs {
			m[a.Key] = a.Value
		}
		out[s.Name] = m
	}
	return out
}

func TestRecordCacheSpans(t *testing.T) {
	tr := NewTrace(testID(9), 0)
	// 5 L1 hits, 4 misses of which the shared level answered 1.
	RecordCache(tr, 7, 5, 4, 1, true)
	got := spanAttrs(tr)
	if a := got["cache.l1"]; a["hits"] != "5" || a["misses"] != "4" || len(a) != 2 {
		t.Fatalf("cache.l1 attrs = %v", a)
	}
	if a := got["cache.l2"]; a["hits"] != "1" || a["misses"] != "3" || len(a) != 2 {
		t.Fatalf("cache.l2 attrs = %v", a)
	}
	for _, s := range tr.Spans() {
		if s.Parent != 7 {
			t.Fatalf("span %s has parent %d, want 7", s.Name, s.Parent)
		}
	}

	flat := NewTrace(testID(10), 0)
	RecordCache(flat, 0, 5, 4, 0, false)
	if got := spanAttrs(flat); len(got) != 1 || got["cache.l1"] == nil {
		t.Fatalf("flat store recorded %v, want cache.l1 only", got)
	}
}

func TestRecordCacheIdleEmitsNothing(t *testing.T) {
	tr := NewTrace(testID(11), 0)
	RecordCache(tr, 0, 0, 0, 0, true)
	RecordRemote(tr, 0, cache.RemoteStats{Gets: 3}, cache.RemoteStats{Gets: 3})
	if tr.Len() != 0 {
		t.Fatalf("idle traffic recorded %d spans", tr.Len())
	}
}

func TestRecordCacheNilTrace(t *testing.T) {
	// Must not panic.
	RecordCache(nil, 0, 1, 1, 1, true)
	RecordRemote(nil, 0, cache.RemoteStats{}, cache.RemoteStats{Gets: 1})
}

func TestRecordRemote(t *testing.T) {
	tr := NewTrace(testID(12), 0)
	start := cache.RemoteStats{Gets: 10, Hits: 4, Errors: 1}
	end := cache.RemoteStats{Gets: 16, Hits: 9, Errors: 1, Degraded: 2, Breaker: cache.BreakerOpen}
	RecordRemote(tr, 3, start, end)
	a := spanAttrs(tr)["cache.remote"]
	if a["gets"] != "6" || a["hits"] != "5" || a["errors"] != "0" || a["degraded"] != "2" ||
		a["breaker"] != cache.BreakerOpen.String() {
		t.Fatalf("cache.remote attrs = %v", a)
	}
}
