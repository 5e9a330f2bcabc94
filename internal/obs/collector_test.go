package obs

import (
	"net/http/httptest"
	"testing"
)

func TestCollectorNilSafe(t *testing.T) {
	var c *Collector
	if c.Sampled(testID(1)) {
		t.Fatal("nil collector sampled")
	}
	if tr, _ := c.StartRequest(httptest.NewRequest("GET", "/", nil)); tr != nil {
		t.Fatal("nil collector traced")
	}
	if c.Get("x") != nil || c.Len() != 0 {
		t.Fatal("nil collector retained")
	}
}

func TestCollectorHeaderAlwaysTraced(t *testing.T) {
	c := NewCollector(0, 0) // sampling disabled
	id := testID(0x3c)
	r := httptest.NewRequest("GET", "/", nil)
	r.Header.Set(TraceIDHeader, id.String())
	r.Header.Set(ParentSpanHeader, "7")
	tr, parent := c.StartRequest(r)
	if tr == nil {
		t.Fatal("header-carried ID must always trace")
	}
	if tr.ID() != id {
		t.Fatalf("trace id = %v, want %v", tr.ID(), id)
	}
	if parent != 7 {
		t.Fatalf("parent = %d, want 7", parent)
	}
	// Same ID returns the same trace.
	tr2, _ := c.StartRequest(r)
	if tr2 != tr {
		t.Fatal("same ID must return the same trace")
	}
	if got := c.Get(id.String()); got != tr {
		t.Fatal("Get must return the retained trace")
	}
}

func TestCollectorSampling(t *testing.T) {
	full := NewCollector(1, 0)
	off := NewCollector(0, 0)
	never := NewCollector(-1, 0)
	sampled := 0
	for i := 0; i < 100; i++ {
		id := full.NewID()
		if full.Sampled(id) {
			sampled++
		}
		if off.Sampled(id) || never.Sampled(id) {
			t.Fatal("disabled sampling sampled an ID")
		}
	}
	if sampled != 100 {
		t.Fatalf("rate 1.0 sampled %d/100", sampled)
	}
	// A fractional rate is deterministic per ID.
	half := NewCollector(0.5, 0)
	id := half.NewID()
	first := half.Sampled(id)
	for i := 0; i < 10; i++ {
		if half.Sampled(id) != first {
			t.Fatal("sampling decision must be deterministic per ID")
		}
	}
}

func TestCollectorUnsampledRequestUntraced(t *testing.T) {
	c := NewCollector(0, 0)
	tr, _ := c.StartRequest(httptest.NewRequest("GET", "/", nil))
	if tr != nil {
		t.Fatal("rate 0 must not trace unsolicited requests")
	}
	cFull := NewCollector(1, 0)
	tr, parent := cFull.StartRequest(httptest.NewRequest("GET", "/", nil))
	if tr == nil || parent != 0 {
		t.Fatalf("rate 1 must trace: tr=%v parent=%d", tr, parent)
	}
}

func TestCollectorEviction(t *testing.T) {
	c := NewCollector(1, 2)
	var ids []ID
	for i := 0; i < 3; i++ {
		r := httptest.NewRequest("GET", "/", nil)
		id := c.NewID()
		r.Header.Set(TraceIDHeader, id.String())
		c.StartRequest(r)
		ids = append(ids, id)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if c.Get(ids[0].String()) != nil {
		t.Fatal("oldest trace must be evicted")
	}
	if c.Get(ids[2].String()) == nil {
		t.Fatal("newest trace must be retained")
	}
}

func TestNewIDUnique(t *testing.T) {
	c := NewCollector(1, 0)
	seen := map[ID]bool{}
	for i := 0; i < 1000; i++ {
		id := c.NewID()
		if seen[id] {
			t.Fatalf("duplicate ID %v", id)
		}
		seen[id] = true
	}
}
