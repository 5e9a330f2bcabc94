package sim

import (
	"math/rand"
	"sort"
	"time"

	"repro/internal/can"
	"repro/internal/eventmodel"
)

// Bus is the state machine of one CAN bus, and the only implementation
// of it: Run steps it from one transmission boundary to the next, and
// the network simulator (package netsim) steps one per bus from its
// global event heap. It owns what one bus does at one instant:
//
//   - a release calendar of per-message release processes;
//   - a ready structure for arbitration: for fullCAN a min-heap of
//     static priority ranks (the pending message with the lowest rank
//     wins the bus), for basicCAN one fixed-capacity FIFO ring per node
//     plus a min-heap over the ranks of the node heads (only FIFO heads
//     compete on the bus);
//   - an inlined pending slot: the one-deep sender buffer lives in the
//     stream struct itself, so a release allocates nothing and a
//     release into an occupied buffer overwrites it (message loss);
//   - the start of one transmission: frame-time draw, error abort with
//     retransmission, or a successful send with its response
//     statistics and trace record.
//
// The observable behaviour is bit-identical to the seed engine
// (goldenref_test.go): releases due at the same instant are processed
// in input order so the RNG draw sequence is preserved, and arbitration
// picks the same unique winner because CAN identifiers are unique.
type Bus struct {
	cfg     Config
	rng     *rand.Rand
	res     Result
	streams []stream
	cal     Calendar
	errs    []time.Duration // pending injection instants, ascending

	rankToStream []int32  // static rank -> stream index
	ready        rankHeap // fullCAN: min-heap of pending ranks
	heads        rankHeap // basicCAN: min-heap of node-head ranks
	nodeQueues   []ring   // basicCAN: per-node FIFO of pending streams
}

// stream is the runtime state of one message. The sender buffer is one
// instance deep and inlined so releases do not allocate.
type stream struct {
	spec       MessageSpec
	rel        Releases
	rank       int32         // static bus priority rank, 0 = highest
	node       int32         // index of the sending node
	queuedAt   time.Duration // queueing instant of the pending instance
	attempt    int           // transmission attempts of the pending instance
	hasPending bool          // sender buffer occupied
}

// NewBus prepares a bus for validated specs and a defaulted cfg: it
// draws every stream's first release in input order, except for the
// streams fed marks (nil marks none), which release only through
// Release. Ranks and node rings are fixed before the run.
func NewBus(specs []MessageSpec, cfg Config, fed []bool) Bus {
	n := len(specs)
	b := Bus{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		res:     Result{Duration: cfg.Duration, Stats: make([]Stats, n)},
		streams: make([]stream, n),
		cal:     NewCalendar(n),
		errs:    sortedErrors(cfg.Errors),
	}
	for i, s := range specs {
		b.res.Stats[i] = Stats{Name: s.Name, MinResponse: -1}
		b.streams[i] = stream{spec: s, rel: NewReleases(s.Event, s.Offset)}
		// The seed engine consumed the RNG in exactly this sequence.
		if fed == nil || !fed[i] {
			b.streams[i].rel.Advance(b.rng, cfg.Duration)
		}
	}

	// Static priority ranks over all streams, fed ones included:
	// identifiers are unique (validated), so the arbitration order is a
	// total order fixed before the run.
	byPriority := make([]int32, n)
	for i := range byPriority {
		byPriority[i] = int32(i)
	}
	sort.Slice(byPriority, func(a, c int) bool {
		sa, sc := &specs[byPriority[a]], &specs[byPriority[c]]
		return sa.Frame.ID.HigherPriorityThan(sc.Frame.ID, sa.Frame.Format, sc.Frame.Format)
	})
	b.rankToStream = byPriority
	for rank, idx := range byPriority {
		b.streams[idx].rank = int32(rank)
	}

	if cfg.Controller == BasicCAN {
		nodeIdx := make(map[string]int32, 8)
		counts := []int{}
		for i := range b.streams {
			name := b.streams[i].spec.Node
			id, ok := nodeIdx[name]
			if !ok {
				id = int32(len(counts))
				nodeIdx[name] = id
				counts = append(counts, 0)
			}
			b.streams[i].node = id
			counts[id]++
		}
		b.nodeQueues = make([]ring, len(counts))
		for id, c := range counts {
			b.nodeQueues[id] = ring{buf: make([]int32, c)}
		}
		b.heads = make(rankHeap, 0, len(counts))
	} else {
		b.ready = make(rankHeap, 0, n)
	}

	for i := range b.streams {
		b.cal.Push(int32(i), b.streams[i].rel.Next())
	}
	return b
}

// ReleaseDue queues every local release up to and including t. Due
// streams are processed in input order — not calendar order — because
// the seed engine scanned streams in input order and the RNG draw
// sequence and FIFO numbering must be reproduced exactly.
func (b *Bus) ReleaseDue(t time.Duration) {
	for _, i := range b.cal.Due(t) {
		rel := &b.streams[i].rel
		for at := rel.Next(); at >= 0 && at <= t; at = rel.Next() {
			b.Release(i, at)
			rel.Advance(b.rng, b.cfg.Duration)
		}
		b.cal.Push(i, rel.Next())
	}
}

// Release queues an instance of stream i at instant at. A still-pending
// predecessor is overwritten and counted lost; only a fresh queueing
// (empty buffer) changes the ready structures, since an overwrite keeps
// the stream's arbitration slot.
func (b *Bus) Release(i int32, at time.Duration) {
	st := &b.streams[i]
	stats := &b.res.Stats[i]
	stats.Released++
	if st.hasPending {
		stats.Lost++
	} else if b.cfg.Controller == BasicCAN {
		q := &b.nodeQueues[st.node]
		if q.size == 0 {
			b.heads.push(st.rank)
		}
		q.push(i)
	} else {
		b.ready.push(st.rank)
	}
	st.hasPending = true
	st.queuedAt = at
	st.attempt = 1
}

// NextRelease returns the earliest pending local release instant, or -1
// once every release process is exhausted.
func (b *Bus) NextRelease() time.Duration { return b.cal.Next() }

// QueuedAt returns the queueing instant of stream i's latest instance.
func (b *Bus) QueuedAt(i int32) time.Duration { return b.streams[i].queuedAt }

// Start arbitrates at now and starts one transmission. It returns the
// winning stream, or -1 when no instance is pending, and the instant
// the bus frees. sent reports a successful send, which empties the
// winner's buffer; otherwise an injected error inside the frame aborted
// it, the bus is busy until the error signalling ends, and the instance
// stays pending for retransmission. Injection instants before now fell
// on an idle bus and are skipped.
func (b *Bus) Start(now time.Duration) (w int32, until time.Duration, sent bool) {
	for {
		if w = b.arbitrate(); w < 0 {
			return -1, now, false
		}
		st := &b.streams[w]
		c := drawFrameTime(b.cfg.Bus, b.cfg.Stuffing, b.rng, st.spec.Frame)
		end := now + c

		if len(b.errs) > 0 && b.errs[0] < now {
			b.errs = b.errs[1:]
			continue
		}
		if len(b.errs) > 0 && b.errs[0] < end {
			until = b.errs[0] + b.cfg.Bus.ErrorOverheadTime()
			b.errs = b.errs[1:]
			b.res.BusBusy += until - now
			b.res.Errors++
			b.record(Event{
				Kind: EventError, Time: now, Duration: until - now,
				Message: st.spec.Name, Node: st.spec.Node, Attempt: st.attempt,
			})
			st.attempt++
			b.res.Stats[w].Retransmissions++
			return w, until, false
		}

		b.res.BusBusy += c
		stats := &b.res.Stats[w]
		stats.Sent++
		resp := end - st.queuedAt
		if resp > stats.MaxResponse {
			stats.MaxResponse = resp
		}
		if stats.MinResponse < 0 || resp < stats.MinResponse {
			stats.MinResponse = resp
		}
		b.record(Event{
			Kind: EventTransmit, Time: now, Duration: c,
			Message: st.spec.Name, Node: st.spec.Node, Attempt: st.attempt,
		})
		b.complete(w)
		return w, end, true
	}
}

// Result returns the outcome once the run is over; a message never
// sent reports a zero MinResponse.
func (b *Bus) Result() Result {
	for i := range b.res.Stats {
		if b.res.Stats[i].MinResponse < 0 {
			b.res.Stats[i].MinResponse = 0
		}
	}
	return b.res
}

// complete removes the transmitted instance from the buffers. The winner
// is by construction the minimum of its ready heap.
func (b *Bus) complete(w int32) {
	st := &b.streams[w]
	st.hasPending = false
	if b.cfg.Controller == BasicCAN {
		b.heads.popMin()
		q := &b.nodeQueues[st.node]
		q.pop()
		if q.size > 0 {
			b.heads.push(b.streams[q.head()].rank)
		}
		return
	}
	b.ready.popMin()
}

// arbitrate returns the stream index winning the bus, or -1 when idle:
// the lowest pending rank (fullCAN) or the lowest rank among the node
// FIFO heads (basicCAN).
func (b *Bus) arbitrate() int32 {
	if b.cfg.Controller == BasicCAN {
		if len(b.heads) == 0 {
			return -1
		}
		return b.rankToStream[b.heads[0]]
	}
	if len(b.ready) == 0 {
		return -1
	}
	return b.rankToStream[b.ready[0]]
}

// record appends a trace event, raising TraceTruncated once the limit
// drops events.
func (b *Bus) record(ev Event) {
	if !b.cfg.RecordTrace {
		return
	}
	if len(b.res.Trace) >= b.cfg.TraceLimit {
		b.res.TraceTruncated = true
		return
	}
	b.res.Trace = append(b.res.Trace, ev)
}

// drawFrameTime draws the wire time of one transmission under the
// stuffing mode, consuming one RNG value in StuffRandom mode.
func drawFrameTime(bus can.Bus, mode StuffingMode, rng *rand.Rand, f can.Frame) time.Duration {
	switch mode {
	case StuffNominal:
		return bus.WireTime(f.BitsNominal())
	case StuffRandom:
		span := f.MaxStuffBits()
		return bus.WireTime(f.BitsNominal() + rng.Intn(span+1))
	default:
		return bus.WireTime(f.BitsWorstCase())
	}
}

// Releases is the release process of one message: nominal instants at
// the offset plus whole periods, each delayed by a uniform draw from
// [0, Jitter], up to the horizon.
type Releases struct {
	period, jitter time.Duration
	nominal        time.Duration // next nominal release instant
	next           time.Duration // drawn release instant, -1 when none
}

// NewReleases returns the process of the event model starting at
// offset; no release is drawn until Advance.
func NewReleases(ev eventmodel.Model, offset time.Duration) Releases {
	return Releases{period: ev.Period, jitter: ev.Jitter, nominal: offset, next: -1}
}

// Advance draws the next jittered release, or -1 past the horizon.
func (r *Releases) Advance(rng *rand.Rand, horizon time.Duration) {
	if r.nominal >= horizon {
		r.next = -1
		return
	}
	r.next = r.nominal
	if r.jitter > 0 {
		r.next += time.Duration(rng.Int63n(int64(r.jitter) + 1))
	}
	r.nominal += r.period
}

// Next returns the drawn release instant, or -1 when none is pending.
func (r *Releases) Next() time.Duration { return r.next }

// Calendar is the release calendar: a binary min-heap of stream
// indices keyed by their next release instant, ties broken by index.
type Calendar struct {
	heap []calEntry
	due  []int32 // scratch buffer for the streams due at one instant
}

type calEntry struct {
	at time.Duration
	i  int32
}

func (x calEntry) less(y calEntry) bool {
	if x.at != y.at {
		return x.at < y.at
	}
	return x.i < y.i
}

// NewCalendar returns a calendar for up to n streams.
func NewCalendar(n int) Calendar {
	return Calendar{heap: make([]calEntry, 0, n), due: make([]int32, 0, n)}
}

// Push schedules stream i at instant at; a negative instant (an
// exhausted release process) is not scheduled.
func (c *Calendar) Push(i int32, at time.Duration) {
	if at < 0 {
		return
	}
	h := append(c.heap, calEntry{at: at, i: i})
	child := len(h) - 1
	for child > 0 {
		parent := (child - 1) / 2
		if !h[child].less(h[parent]) {
			break
		}
		h[child], h[parent] = h[parent], h[child]
		child = parent
	}
	c.heap = h
}

// Next returns the earliest scheduled instant, or -1 when empty.
func (c *Calendar) Next() time.Duration {
	if len(c.heap) == 0 {
		return -1
	}
	return c.heap[0].at
}

// Due removes every stream scheduled at or before t and returns them in
// ascending index order. The slice is valid until the next Due.
func (c *Calendar) Due(t time.Duration) []int32 {
	due := c.due[:0]
	for len(c.heap) > 0 && c.heap[0].at <= t {
		due = append(due, c.pop())
	}
	insertionSort(due)
	c.due = due
	return due
}

func (c *Calendar) pop() int32 {
	h := c.heap
	root := h[0].i
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	parent := 0
	for {
		child := 2*parent + 1
		if child >= len(h) {
			break
		}
		if r := child + 1; r < len(h) && h[r].less(h[child]) {
			child = r
		}
		if !h[child].less(h[parent]) {
			break
		}
		h[parent], h[child] = h[child], h[parent]
		parent = child
	}
	c.heap = h
	return root
}

// insertionSort orders the due buffer ascending; it is almost always
// tiny (a handful of simultaneous releases), so this beats sort.Slice
// and allocates nothing.
func insertionSort(a []int32) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// rankHeap is a binary min-heap of static priority ranks. The minimum
// rank wins arbitration; ranks are unique per bus (identifiers are
// unique), so the heap order is a total order.
type rankHeap []int32

func (h *rankHeap) push(r int32) {
	a := append(*h, r)
	child := len(a) - 1
	for child > 0 {
		parent := (child - 1) / 2
		if a[parent] <= a[child] {
			break
		}
		a[child], a[parent] = a[parent], a[child]
		child = parent
	}
	*h = a
}

func (h *rankHeap) popMin() {
	a := *h
	last := len(a) - 1
	a[0] = a[last]
	a = a[:last]
	parent := 0
	for {
		child := 2*parent + 1
		if child >= len(a) {
			break
		}
		if r := child + 1; r < len(a) && a[r] < a[child] {
			child = r
		}
		if a[child] >= a[parent] {
			break
		}
		a[parent], a[child] = a[child], a[parent]
		parent = child
	}
	*h = a
}

// ring is a fixed-capacity FIFO of stream indices — the software queue
// of a basicCAN controller. Capacity is the number of streams on the
// node: the one-deep sender buffer admits at most one slot per stream,
// so the ring cannot overflow.
type ring struct {
	buf         []int32
	first, size int
}

func (r *ring) push(i int32) {
	r.buf[(r.first+r.size)%len(r.buf)] = i
	r.size++
}

func (r *ring) pop() {
	r.first = (r.first + 1) % len(r.buf)
	r.size--
}

func (r *ring) head() int32 { return r.buf[r.first] }
