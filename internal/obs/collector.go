package obs

import (
	"encoding/binary"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/contenthash"
)

// DefaultTraceBuffer is how many finished-or-active traces a Collector
// retains before evicting the oldest.
const DefaultTraceBuffer = 64

// DefaultSampleRate is the fraction of unsolicited requests traced
// when the operator sets no rate. Requests carrying X-Trace-Id are
// always traced regardless.
const DefaultSampleRate = 0.01

// Collector owns trace lifecycle for a server: it mints IDs, applies
// the sampling decision, and retains a bounded FIFO of traces for
// later retrieval via GET /v1/trace/{id}. A nil *Collector never
// samples and never retains.
type Collector struct {
	sample float64
	limit  int

	seed uint64

	mu     sync.Mutex
	ctr    uint64
	traces map[ID]*Trace
	order  []ID
}

// NewCollector returns a collector tracing the given fraction of
// unsolicited requests. sample <= 0 disables sampling (header-carried
// IDs are still honored); sample >= 1 traces everything. limit <= 0
// selects DefaultTraceBuffer. Each trace keeps up to DefaultSpanLimit
// spans.
func NewCollector(sample float64, limit int) *Collector {
	if limit <= 0 {
		limit = DefaultTraceBuffer
	}
	h := contenthash.New(0x6f62735f73656564) // "obs_seed"
	h.Int(time.Now().UnixNano())
	h.Int(int64(os.Getpid()))
	return &Collector{
		sample: sample,
		limit:  limit,
		seed:   binary.LittleEndian.Uint64(firstEight(h.Sum())),
		traces: make(map[ID]*Trace),
	}
}

func firstEight(d contenthash.Digest) []byte { return d[:8] }

// idCounter feeds the collector-less NewID.
var idCounter atomic.Uint64

// NewID mints a process-unique 128-bit trace ID without a collector —
// the standalone form CLI commands use to trace one run at full rate.
func NewID() ID {
	h := contenthash.New(0x6f62735f7472_6964) // "obs_trid"
	h.Int(time.Now().UnixNano())
	h.Int(int64(os.Getpid()))
	h.Word(idCounter.Add(1))
	return h.Sum()
}

// NewID mints a process-unique 128-bit trace ID.
func (c *Collector) NewID() ID {
	c.mu.Lock()
	c.ctr++
	n := c.ctr
	c.mu.Unlock()
	h := contenthash.New(0x6f62735f7472_6964) // "obs_trid"
	h.Word(c.seed)
	h.Word(n)
	return h.Sum()
}

// Sampled reports whether the ID falls inside the sample fraction. The
// decision hashes only the ID, so it is deterministic per trace: every
// process that sees the same ID makes the same call.
func (c *Collector) Sampled(id ID) bool {
	if c == nil || c.sample <= 0 {
		return false
	}
	if c.sample >= 1 {
		return true
	}
	v := binary.LittleEndian.Uint64(id[:8])
	return float64(v) < c.sample*float64(^uint64(0))
}

// StartRequest decides tracing for one incoming request: a request
// carrying a valid X-Trace-Id is always traced under that ID (the
// caller already paid for the decision), otherwise a fresh ID is
// minted and sampled at the collector's rate. The returned trace is
// nil when the request goes untraced; parent is the caller's span ID
// from X-Parent-Span (0 when absent).
func (c *Collector) StartRequest(r *http.Request) (tr *Trace, parent uint64) {
	if c == nil {
		return nil, 0
	}
	if hdr := r.Header.Get(TraceIDHeader); hdr != "" {
		if id, ok := ParseID(hdr); ok {
			return c.open(id), ParseSpanID(r.Header.Get(ParentSpanHeader))
		}
	}
	id := c.NewID()
	if !c.Sampled(id) {
		return nil, 0
	}
	return c.open(id), 0
}

// open registers (or returns the existing) trace for id, evicting the
// oldest retained trace past the buffer limit.
func (c *Collector) open(id ID) *Trace {
	c.mu.Lock()
	defer c.mu.Unlock()
	if tr, ok := c.traces[id]; ok {
		return tr
	}
	tr := NewTrace(id, 0)
	c.traces[id] = tr
	c.order = append(c.order, id)
	for len(c.order) > c.limit {
		delete(c.traces, c.order[0])
		c.order = c.order[1:]
	}
	return tr
}

// Get returns the retained trace for a 32-hex-char ID, or nil.
func (c *Collector) Get(idHex string) *Trace {
	if c == nil {
		return nil
	}
	id, ok := ParseID(idHex)
	if !ok {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.traces[id]
}

// Len reports how many traces the collector retains.
func (c *Collector) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.traces)
}
