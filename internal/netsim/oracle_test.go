package netsim

import (
	"math/rand"
	"sort"
	"time"

	"repro/internal/can"
	"repro/internal/gateway"
	"repro/internal/sim"
	"repro/internal/tdma"
)

// This file keeps the network engine as it stood before the CAN bus
// state machine moved into package sim: engine.go verbatim with its
// identifiers renamed, plus the building blocks it took from package
// sim (rank heap, node ring, frame-time draw). FuzzNetSimMatchesOracle
// requires Run to reproduce this engine's Result bit for bit, so a
// change to the shared state machine that alters one RNG draw, one
// arbitration or one trace record fails here.

// oracleRun is Run over the preserved engine.
func oracleRun(topo *Topology, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	e, err := newOracleEngine(topo, cfg)
	if err != nil {
		return nil, err
	}
	e.run()
	return e.result(), nil
}

// The network engine merges per-bus event calendars (the indexed-heap
// structures of package sim) under one global event heap. Within one
// instant, events are processed in a fixed kind order:
//
//  1. releases (local calendars draw new instances),
//  2. gateway service activations (so an instance arriving at exactly
//     the service instant waits for the next activation — the
//     conservative reading the backlog bound assumes),
//  3. transmission/slot completions (which feed gateway queues),
//  4. TDMA slot openings,
//
// and only after the instant is fully drained do idle buses arbitrate
// and start transmissions, and gateway backlogs get sampled. All ties
// are broken by component index, every random draw comes from a
// component-owned RNG derived from the run seed, and the run is
// single-threaded — one seed, one result, bit for bit.

// Event kinds in processing order within one instant.
const (
	oracleEvRelease = iota
	oracleEvTDMARelease
	oracleEvGwService
	oracleEvTxEnd
	oracleEvTDMADone
	oracleEvSlot
)

// event is one entry of the global calendar.
type oracleEvent struct {
	at    time.Duration
	kind  int8
	idx   int32         // component index (bus, TDMA bus or gateway)
	a     int32         // payload: stream (evTDMADone) or slot (evSlot)
	birth time.Duration // payload: origin release instant (evTDMADone)
}

func oracleEventLess(x, y oracleEvent) bool {
	if x.at != y.at {
		return x.at < y.at
	}
	if x.kind != y.kind {
		return x.kind < y.kind
	}
	if x.idx != y.idx {
		return x.idx < y.idx
	}
	return x.a < y.a
}

// elem identifies a message stream in the resolved topology.
type oracleElem struct {
	kind int8 // 0 = CAN bus, 1 = TDMA bus
	bus  int32
	idx  int32 // stream index on the bus
}

const (
	oracleElemCAN  = int8(0)
	oracleElemTDMA = int8(1)
)

// stream is the runtime state of one CAN message (see sim.stream); the
// additions are the origin timestamp carried for path tracing and the
// external flag marking gateway-fed streams.
type oracleStream struct {
	spec        sim.MessageSpec
	rank        int32
	node        int32
	nextNominal time.Duration
	nextActual  time.Duration
	queuedAt    time.Duration
	birth       time.Duration
	attempt     int
	hasPending  bool
	external    bool
}

// advance draws the next jittered release, or -1 past the horizon.
func (st *oracleStream) advance(rng *rand.Rand, horizon time.Duration) {
	if st.nextNominal >= horizon {
		st.nextActual = -1
		return
	}
	actual := st.nextNominal
	if j := st.spec.Event.Jitter; j > 0 {
		actual += time.Duration(rng.Int63n(int64(j) + 1))
	}
	st.nextActual = actual
	st.nextNominal += st.spec.Event.Period
}

// busEngine is one CAN bus instance of the calendar engine.
type oracleBusEngine struct {
	spec    BusSpec
	rng     *rand.Rand
	streams []oracleStream

	calendar []int32
	dueBuf   []int32
	relAt    func(int32) time.Duration // calendar key accessor

	rankToStream []int32
	ready        oracleRankHeap
	heads        oracleRankHeap
	nodeQueues   []oracleRing

	errs []time.Duration

	busy          bool
	busyUntil     time.Duration
	inFlight      int32
	inFlightBirth time.Duration
	armedRelease  time.Duration
	dirty         bool

	res BusResult
}

// tdmaStream is the runtime state of one time-triggered message.
type oracleTDMAStream struct {
	spec        tdma.Message
	nextNominal time.Duration
	nextActual  time.Duration
	external    bool
}

func (st *oracleTDMAStream) advance(rng *rand.Rand, horizon time.Duration) {
	if st.nextNominal >= horizon {
		st.nextActual = -1
		return
	}
	actual := st.nextNominal
	if j := st.spec.Event.Jitter; j > 0 {
		actual += time.Duration(rng.Int63n(int64(j) + 1))
	}
	st.nextActual = actual
	st.nextNominal += st.spec.Event.Period
}

// tdmaEntry is one queued instance waiting for its slot.
type oracleTDMAEntry struct {
	queuedAt time.Duration
	birth    time.Duration
}

// tdmaEngine is one time-triggered segment: per-message FIFO queues
// drained by the static slot cycle.
type oracleTDMAEngine struct {
	spec    TDMABusSpec
	rng     *rand.Rand
	streams []oracleTDMAStream

	calendar []int32
	dueBuf   []int32
	relAt    func(int32) time.Duration // calendar key accessor

	queues     [][]oracleTDMAEntry
	slotOwner  []int32
	slotOffset []time.Duration
	wire       []time.Duration
	cycle      time.Duration

	armedRelease time.Duration

	res BusResult
}

// gwEntry is one instance queued inside a gateway.
type oracleGwEntry struct {
	route int32 // global route index
	birth time.Duration
}

// gwSlot is one per-message buffer of a PerMessageBuffer gateway.
type oracleGwSlot struct {
	occupied bool
	birth    time.Duration
}

// gwEngine is one store-and-forward gateway.
type oracleGwEngine struct {
	spec GatewaySpec
	rng  *rand.Rand

	fifo     []oracleGwEntry // SharedFIFO queue
	fifoHead int
	slots    []oracleGwSlot // PerMessageBuffer, indexed like routes
	occupied int
	nextSlot int     // PerMessageBuffer round-robin scan position
	routes   []int32 // global route indices through this gateway

	nextNominal time.Duration

	res GatewayResult
}

// size returns the current queue occupancy.
func (g *oracleGwEngine) size() int {
	if g.spec.Policy == gateway.PerMessageBuffer {
		return g.occupied
	}
	return len(g.fifo) - g.fifoHead
}

// resolvedRoute is a route with all names resolved to indices.
type oracleRoute struct {
	gw       int32
	slot     int32 // per-gateway buffer slot (PerMessageBuffer)
	from, to oracleElem
}

// resolvedPath is a path with resolved hops.
type oraclePath struct {
	name string
	hops []oracleElem
}

// engine is the global network calendar.
type oracleEngine struct {
	topo *Topology
	cfg  Config

	buses []oracleBusEngine
	tdmas []oracleTDMAEngine
	gws   []oracleGwEngine

	routes     []oracleRoute
	routesFrom map[oracleElem][]int32
	lastHop    map[oracleElem][]int32
	memberOf   map[oracleElem][]int32
	paths      []oraclePath
	pathRes    []PathResult

	events    []oracleEvent
	dirtyList []int32
}

// subSeed derives a component RNG seed from the run seed (splitmix64),
// so components draw independent streams regardless of interleaving.
func oracleSubSeed(seed int64, salt uint64) int64 {
	z := uint64(seed) + (salt+1)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

func newOracleEngine(topo *Topology, cfg Config) (*oracleEngine, error) {
	e := &oracleEngine{
		topo:       topo,
		cfg:        cfg,
		routesFrom: map[oracleElem][]int32{},
		lastHop:    map[oracleElem][]int32{},
		memberOf:   map[oracleElem][]int32{},
	}

	// Name resolution tables.
	busIdx := map[string]int32{}
	tdmaIdx := map[string]int32{}
	gwIdx := map[string]int32{}
	streamIdx := map[Ref]oracleElem{}
	for i, b := range topo.Buses {
		busIdx[b.Name] = int32(i)
		for j, m := range b.Messages {
			streamIdx[Ref{b.Name, m.Name}] = oracleElem{kind: oracleElemCAN, bus: int32(i), idx: int32(j)}
		}
	}
	for i, d := range topo.TDMABuses {
		tdmaIdx[d.Name] = int32(i)
		for j, m := range d.Messages {
			streamIdx[Ref{d.Name, m.Name}] = oracleElem{kind: oracleElemTDMA, bus: int32(i), idx: int32(j)}
		}
	}
	for i, g := range topo.Gateways {
		gwIdx[g.Name] = int32(i)
	}
	external := map[oracleElem]bool{}
	for _, r := range topo.Routes {
		external[streamIdx[r.To]] = true
	}

	salt := uint64(0)
	nextSeed := func() int64 {
		s := oracleSubSeed(cfg.Seed, salt)
		salt++
		return s
	}

	// CAN buses.
	e.buses = make([]oracleBusEngine, len(topo.Buses))
	for bi := range topo.Buses {
		spec := topo.Buses[bi]
		n := len(spec.Messages)
		b := &e.buses[bi]
		b.spec = spec
		b.rng = rand.New(rand.NewSource(nextSeed()))
		b.streams = make([]oracleStream, n)
		b.calendar = make([]int32, 0, n)
		b.dueBuf = make([]int32, 0, n)
		b.errs = oracleSortedErrors(spec.Errors)
		b.inFlight = -1
		b.armedRelease = -1
		b.relAt = func(i int32) time.Duration { return b.streams[i].nextActual }
		b.res = BusResult{Name: spec.Name, Stats: make([]sim.Stats, n)}
		for i, m := range spec.Messages {
			b.res.Stats[i] = sim.Stats{Name: m.Name, MinResponse: -1}
			b.streams[i] = oracleStream{
				spec:        m,
				nextNominal: m.Offset,
				external:    external[oracleElem{kind: oracleElemCAN, bus: int32(bi), idx: int32(i)}],
			}
		}
		// Static priority ranks over all streams, external included —
		// forwarded messages arbitrate like any other.
		byPriority := make([]int32, n)
		for i := range byPriority {
			byPriority[i] = int32(i)
		}
		sort.Slice(byPriority, func(a, c int) bool {
			sa, sc := &spec.Messages[byPriority[a]], &spec.Messages[byPriority[c]]
			return sa.Frame.ID.HigherPriorityThan(sc.Frame.ID, sa.Frame.Format, sc.Frame.Format)
		})
		b.rankToStream = byPriority
		for rank, idx := range byPriority {
			b.streams[idx].rank = int32(rank)
		}
		if spec.Controller == sim.BasicCAN {
			nodeIdx := map[string]int32{}
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
			b.nodeQueues = make([]oracleRing, len(counts))
			for id, c := range counts {
				b.nodeQueues[id] = newOracleRing(c)
			}
			b.heads = make(oracleRankHeap, 0, len(counts))
		} else {
			b.ready = make(oracleRankHeap, 0, n)
		}
		// First releases drawn in input order, as in package sim.
		for i := range b.streams {
			if b.streams[i].external {
				b.streams[i].nextActual = -1
				continue
			}
			b.streams[i].advance(b.rng, cfg.Duration)
			if b.streams[i].nextActual >= 0 {
				b.calendar = oracleCalPush(b.calendar, b.relAt, int32(i))
			}
		}
	}

	// TDMA segments.
	e.tdmas = make([]oracleTDMAEngine, len(topo.TDMABuses))
	for di := range topo.TDMABuses {
		spec := topo.TDMABuses[di]
		n := len(spec.Messages)
		d := &e.tdmas[di]
		d.spec = spec
		d.rng = rand.New(rand.NewSource(nextSeed()))
		d.streams = make([]oracleTDMAStream, n)
		d.calendar = make([]int32, 0, n)
		d.dueBuf = make([]int32, 0, n)
		d.queues = make([][]oracleTDMAEntry, n)
		d.wire = make([]time.Duration, n)
		d.cycle = spec.Schedule.Cycle()
		d.armedRelease = -1
		d.relAt = func(i int32) time.Duration { return d.streams[i].nextActual }
		d.res = BusResult{Name: spec.Name, Stats: make([]sim.Stats, n)}
		owner := map[string]int32{}
		for i, m := range spec.Messages {
			owner[m.Name] = int32(i)
			d.res.Stats[i] = sim.Stats{Name: m.Name, MinResponse: -1}
			d.streams[i] = oracleTDMAStream{
				spec:     m,
				external: external[oracleElem{kind: oracleElemTDMA, bus: int32(di), idx: int32(i)}],
			}
			d.wire[i] = spec.Bus.FrameTime(m.Frame, spec.Stuffing)
		}
		var off time.Duration
		for _, sl := range spec.Schedule.Slots {
			idx, ok := owner[sl.Owner]
			if !ok {
				idx = -1 // slot owned by an unsimulated message: idles
			}
			d.slotOwner = append(d.slotOwner, idx)
			d.slotOffset = append(d.slotOffset, off)
			off += sl.Length
		}
		for i := range d.streams {
			if d.streams[i].external {
				d.streams[i].nextActual = -1
				continue
			}
			d.streams[i].advance(d.rng, cfg.Duration)
			if d.streams[i].nextActual >= 0 {
				d.calendar = oracleCalPush(d.calendar, d.relAt, int32(i))
			}
		}
	}

	// Gateways and routes.
	e.gws = make([]oracleGwEngine, len(topo.Gateways))
	for gi := range topo.Gateways {
		g := &e.gws[gi]
		g.spec = topo.Gateways[gi]
		g.rng = rand.New(rand.NewSource(nextSeed()))
		g.res = GatewayResult{Name: g.spec.Name}
	}
	e.routes = make([]oracleRoute, len(topo.Routes))
	for ri, r := range topo.Routes {
		gi := gwIdx[r.Gateway]
		g := &e.gws[gi]
		rr := oracleRoute{
			gw:   gi,
			slot: int32(len(g.routes)),
			from: streamIdx[r.From],
			to:   streamIdx[r.To],
		}
		e.routes[ri] = rr
		g.routes = append(g.routes, int32(ri))
		e.routesFrom[rr.from] = append(e.routesFrom[rr.from], int32(ri))
	}
	for gi := range e.gws {
		g := &e.gws[gi]
		if g.spec.Policy == gateway.PerMessageBuffer {
			g.slots = make([]oracleGwSlot, len(g.routes))
		}
	}

	// Paths.
	e.paths = make([]oraclePath, len(topo.Paths))
	e.pathRes = make([]PathResult, len(topo.Paths))
	for pi, p := range topo.Paths {
		rp := oraclePath{name: p.Name}
		for _, h := range p.Hops {
			el := streamIdx[h]
			rp.hops = append(rp.hops, el)
			e.memberOf[el] = append(e.memberOf[el], int32(pi))
		}
		last := rp.hops[len(rp.hops)-1]
		e.lastHop[last] = append(e.lastHop[last], int32(pi))
		e.paths[pi] = rp
		e.pathRes[pi] = PathResult{Name: p.Name, MinLatency: -1}
	}

	// Initial events.
	for bi := range e.buses {
		e.armRelease(int32(bi))
	}
	for di := range e.tdmas {
		e.armTDMARelease(int32(di))
		d := &e.tdmas[di]
		for si, off := range d.slotOffset {
			if off < cfg.Duration {
				e.push(oracleEvent{at: off, kind: oracleEvSlot, idx: int32(di), a: int32(si)})
			}
		}
	}
	for gi := range e.gws {
		e.scheduleService(int32(gi), 0)
	}
	return e, nil
}

// run drains the global calendar.
func (e *oracleEngine) run() {
	for len(e.events) > 0 {
		t := e.events[0].at
		for len(e.events) > 0 && e.events[0].at == t {
			e.dispatch(e.pop(), t)
		}
		// Start phase: idle buses touched this instant arbitrate now,
		// after every release, forward and completion at t landed.
		for _, bi := range e.dirtyList {
			b := &e.buses[bi]
			b.dirty = false
			if !b.busy && t < e.cfg.Duration {
				e.tryStart(bi, t)
			}
		}
		e.dirtyList = e.dirtyList[:0]
	}
}

func (e *oracleEngine) dispatch(ev oracleEvent, t time.Duration) {
	switch ev.kind {
	case oracleEvRelease:
		b := &e.buses[ev.idx]
		b.armedRelease = -1
		e.releaseDueCAN(ev.idx, t)
		e.armRelease(ev.idx)
		e.markDirty(ev.idx)
	case oracleEvTDMARelease:
		d := &e.tdmas[ev.idx]
		d.armedRelease = -1
		e.releaseDueTDMA(ev.idx, t)
		e.armTDMARelease(ev.idx)
	case oracleEvGwService:
		e.service(ev.idx, t)
	case oracleEvTxEnd:
		b := &e.buses[ev.idx]
		if b.inFlight >= 0 {
			e.onComplete(oracleElem{kind: oracleElemCAN, bus: ev.idx, idx: b.inFlight}, t, b.inFlightBirth)
			b.inFlight = -1
		}
		b.busy = false
		e.markDirty(ev.idx)
	case oracleEvTDMADone:
		e.onComplete(oracleElem{kind: oracleElemTDMA, bus: ev.idx, idx: ev.a}, t, ev.birth)
	case oracleEvSlot:
		e.serveSlot(ev.idx, ev.a, t)
	}
}

func (e *oracleEngine) markDirty(bi int32) {
	b := &e.buses[bi]
	if !b.dirty {
		b.dirty = true
		e.dirtyList = append(e.dirtyList, bi)
	}
}

// ---------------------------------------------------------------------
// CAN bus mechanics (mirroring the single-bus engine of package sim).
// ---------------------------------------------------------------------

// releaseDueCAN queues every local release up to and including t, in
// input order per instant for reproducible RNG consumption.
func (e *oracleEngine) releaseDueCAN(bi int32, t time.Duration) {
	b := &e.buses[bi]
	due := b.dueBuf[:0]
	for len(b.calendar) > 0 && b.streams[b.calendar[0]].nextActual <= t {
		var i int32
		b.calendar, i = oracleCalPop(b.calendar, b.relAt)
		due = append(due, i)
	}
	oracleInsertionSort(due)
	for _, i := range due {
		st := &b.streams[i]
		for st.nextActual >= 0 && st.nextActual <= t {
			e.release(bi, i, st.nextActual, st.nextActual)
			st.advance(b.rng, e.cfg.Duration)
		}
		if st.nextActual >= 0 {
			b.calendar = oracleCalPush(b.calendar, b.relAt, i)
		}
	}
	b.dueBuf = due[:0]
}

// release queues an instance on bus bi: a local release (birth == at)
// or a gateway injection (birth carried from the origin). An overwrite
// of a still-pending predecessor is the message-loss event.
func (e *oracleEngine) release(bi, i int32, at, birth time.Duration) {
	b := &e.buses[bi]
	st := &b.streams[i]
	stats := &b.res.Stats[i]
	stats.Released++
	if st.hasPending {
		stats.Lost++
		e.pathDrop(oracleElem{kind: oracleElemCAN, bus: bi, idx: i})
	} else if b.spec.Controller == sim.BasicCAN {
		q := &b.nodeQueues[st.node]
		if q.Len() == 0 {
			b.heads.Push(st.rank)
		}
		q.Push(i)
	} else {
		b.ready.Push(st.rank)
	}
	st.hasPending = true
	st.queuedAt = at
	st.birth = birth
	st.attempt = 1
}

// complete removes the winning instance from the buffers.
func (e *oracleEngine) complete(bi, w int32) {
	b := &e.buses[bi]
	st := &b.streams[w]
	st.hasPending = false
	if b.spec.Controller == sim.BasicCAN {
		b.heads.PopMin()
		q := &b.nodeQueues[st.node]
		q.Pop()
		if q.Len() > 0 {
			b.heads.Push(b.streams[q.Head()].rank)
		}
		return
	}
	b.ready.PopMin()
}

// arbitrate returns the stream winning bus bi, or -1 when idle.
func (e *oracleEngine) arbitrate(bi int32) int32 {
	b := &e.buses[bi]
	if b.spec.Controller == sim.BasicCAN {
		if b.heads.Len() == 0 {
			return -1
		}
		return b.rankToStream[b.heads.Min()]
	}
	if b.ready.Len() == 0 {
		return -1
	}
	return b.rankToStream[b.ready.Min()]
}

// tryStart arbitrates bus bi at now and starts one transmission (or
// error recovery), scheduling its end on the global calendar.
func (e *oracleEngine) tryStart(bi int32, now time.Duration) {
	b := &e.buses[bi]
	for {
		w := e.arbitrate(bi)
		if w < 0 {
			return
		}
		st := &b.streams[w]
		c := oracleDrawFrameTime(b.spec.Bus, b.spec.Stuffing, b.rng, st.spec.Frame)
		start := now
		end := start + c

		if len(b.errs) > 0 && b.errs[0] < start {
			// Stale injection instants (bus was idle) are skipped.
			b.errs = b.errs[1:]
			continue
		}
		if len(b.errs) > 0 && b.errs[0] < end {
			errAt := b.errs[0]
			b.errs = b.errs[1:]
			busyUntil := errAt + b.spec.Bus.ErrorOverheadTime()
			b.res.BusBusy += busyUntil - start
			b.res.Errors++
			e.record(bi, sim.Event{
				Kind: sim.EventError, Time: start, Duration: busyUntil - start,
				Message: st.spec.Name, Node: st.spec.Node, Attempt: st.attempt,
			})
			st.attempt++
			b.res.Stats[w].Retransmissions++
			b.busy = true
			b.busyUntil = busyUntil
			b.inFlight = -1
			e.push(oracleEvent{at: busyUntil, kind: oracleEvTxEnd, idx: bi})
			return
		}

		stats := &b.res.Stats[w]
		stats.Sent++
		resp := end - st.queuedAt
		if resp > stats.MaxResponse {
			stats.MaxResponse = resp
		}
		if stats.MinResponse < 0 || resp < stats.MinResponse {
			stats.MinResponse = resp
		}
		e.record(bi, sim.Event{
			Kind: sim.EventTransmit, Time: start, Duration: c,
			Message: st.spec.Name, Node: st.spec.Node, Attempt: st.attempt,
		})
		b.res.BusBusy += c
		b.busy = true
		b.busyUntil = end
		b.inFlight = w
		b.inFlightBirth = st.birth
		e.complete(bi, w)
		e.push(oracleEvent{at: end, kind: oracleEvTxEnd, idx: bi})
		return
	}
}

// armRelease schedules the bus's next local release wake-up.
func (e *oracleEngine) armRelease(bi int32) {
	b := &e.buses[bi]
	if len(b.calendar) == 0 {
		return
	}
	next := b.streams[b.calendar[0]].nextActual
	if b.armedRelease == next {
		return
	}
	b.armedRelease = next
	e.push(oracleEvent{at: next, kind: oracleEvRelease, idx: bi})
}

// record appends a trace event on bus bi.
func (e *oracleEngine) record(bi int32, ev sim.Event) {
	if !e.cfg.RecordTrace {
		return
	}
	b := &e.buses[bi]
	if len(b.res.Trace) >= e.cfg.TraceLimit {
		b.res.TraceTruncated = true
		return
	}
	b.res.Trace = append(b.res.Trace, ev)
}

// ---------------------------------------------------------------------
// TDMA segment mechanics.
// ---------------------------------------------------------------------

// releaseDueTDMA queues local time-triggered releases up to t.
func (e *oracleEngine) releaseDueTDMA(di int32, t time.Duration) {
	d := &e.tdmas[di]
	due := d.dueBuf[:0]
	for len(d.calendar) > 0 && d.streams[d.calendar[0]].nextActual <= t {
		var i int32
		d.calendar, i = oracleCalPop(d.calendar, d.relAt)
		due = append(due, i)
	}
	oracleInsertionSort(due)
	for _, i := range due {
		st := &d.streams[i]
		for st.nextActual >= 0 && st.nextActual <= t {
			d.res.Stats[i].Released++
			d.queues[i] = append(d.queues[i], oracleTDMAEntry{queuedAt: st.nextActual, birth: st.nextActual})
			st.advance(d.rng, e.cfg.Duration)
		}
		if st.nextActual >= 0 {
			d.calendar = oracleCalPush(d.calendar, d.relAt, i)
		}
	}
	d.dueBuf = due[:0]
}

// armTDMARelease schedules the segment's next release wake-up.
func (e *oracleEngine) armTDMARelease(di int32) {
	d := &e.tdmas[di]
	if len(d.calendar) == 0 {
		return
	}
	next := d.streams[d.calendar[0]].nextActual
	if d.armedRelease == next {
		return
	}
	d.armedRelease = next
	e.push(oracleEvent{at: next, kind: oracleEvTDMARelease, idx: di})
}

// serveSlot transmits the head of the owner's queue, if any, and
// re-schedules the slot one cycle later.
func (e *oracleEngine) serveSlot(di, si int32, t time.Duration) {
	d := &e.tdmas[di]
	if owner := d.slotOwner[si]; owner >= 0 && len(d.queues[owner]) > 0 {
		entry := d.queues[owner][0]
		d.queues[owner] = d.queues[owner][1:]
		c := d.wire[owner]
		end := t + c
		d.res.BusBusy += c
		stats := &d.res.Stats[owner]
		stats.Sent++
		resp := end - entry.queuedAt
		if resp > stats.MaxResponse {
			stats.MaxResponse = resp
		}
		if stats.MinResponse < 0 || resp < stats.MinResponse {
			stats.MinResponse = resp
		}
		if e.cfg.RecordTrace {
			if len(d.res.Trace) >= e.cfg.TraceLimit {
				d.res.TraceTruncated = true
			} else {
				d.res.Trace = append(d.res.Trace, sim.Event{
					Kind: sim.EventTransmit, Time: t, Duration: c,
					Message: d.streams[owner].spec.Name, Node: d.spec.Name, Attempt: 1,
				})
			}
		}
		e.push(oracleEvent{at: end, kind: oracleEvTDMADone, idx: di, a: owner, birth: entry.birth})
	}
	if next := t + d.cycle; next < e.cfg.Duration {
		e.push(oracleEvent{at: next, kind: oracleEvSlot, idx: di, a: si})
	}
}

// ---------------------------------------------------------------------
// Gateway mechanics.
// ---------------------------------------------------------------------

// onComplete fans a delivered instance out: gateway arrivals for every
// route sourced at the element, and path-latency records where the
// element closes a traced path.
func (e *oracleEngine) onComplete(el oracleElem, t, birth time.Duration) {
	for _, ri := range e.routesFrom[el] {
		e.enqueue(ri, t, birth)
	}
	for _, pi := range e.lastHop[el] {
		pr := &e.pathRes[pi]
		pr.Completed++
		lat := t - birth
		if lat > pr.MaxLatency {
			pr.MaxLatency = lat
		}
		if pr.MinLatency < 0 || lat < pr.MinLatency {
			pr.MinLatency = lat
		}
	}
}

// enqueue stores an arrival in the gateway queue of route ri. The
// backlog maximum is sampled here: services precede same-instant
// arrivals (event kind order), so occupancy right after an arrival
// equals the end-of-instant occupancy the arrival-curve bound limits.
func (e *oracleEngine) enqueue(ri int32, t, birth time.Duration) {
	r := &e.routes[ri]
	g := &e.gws[r.gw]
	g.res.Arrivals++
	if g.spec.Policy == gateway.PerMessageBuffer {
		sl := &g.slots[r.slot]
		if sl.occupied {
			g.res.OverwriteLosses++
			e.pathDrop(r.to)
		} else {
			sl.occupied = true
			g.occupied++
		}
		sl.birth = birth
		e.sampleBacklog(g)
		return
	}
	if d := g.spec.QueueDepth; d > 0 && g.size() >= d {
		g.res.OverflowDrops++
		e.pathDrop(r.to)
		return
	}
	g.fifo = append(g.fifo, oracleGwEntry{route: ri, birth: birth})
	e.sampleBacklog(g)
}

// sampleBacklog folds the current occupancy into the observed maximum.
func (e *oracleEngine) sampleBacklog(g *oracleGwEngine) {
	if occ := g.size(); occ > g.res.MaxBacklog {
		g.res.MaxBacklog = occ
	}
}

// service runs one forwarding activation of gateway gi.
func (e *oracleEngine) service(gi int32, t time.Duration) {
	g := &e.gws[gi]
	g.res.Activations++
	n := g.spec.batch()
	if g.spec.Policy == gateway.PerMessageBuffer {
		// Round-robin over the buffers, resuming after the last slot
		// forwarded: a fixed scan order would let a busy low-index flow
		// starve the others past the analytic delay bound. The scan
		// starts from a fixed position; advancing it mid-scan would skip
		// a buffer after every forward, so an activation would forward
		// fewer than Batch occupied buffers.
		start := g.nextSlot
		for i := 0; i < len(g.slots) && n > 0; i++ {
			pos := (start + i) % len(g.slots)
			sl := &g.slots[pos]
			if !sl.occupied {
				continue
			}
			sl.occupied = false
			g.occupied--
			e.forward(g.routes[pos], t, sl.birth)
			g.res.Forwarded++
			g.nextSlot = (pos + 1) % len(g.slots)
			n--
		}
	} else {
		for n > 0 && g.size() > 0 {
			entry := g.fifo[g.fifoHead]
			g.fifoHead++
			e.forward(entry.route, t, entry.birth)
			g.res.Forwarded++
			n--
		}
		if g.fifoHead > 64 && g.fifoHead*2 > len(g.fifo) {
			g.fifo = append(g.fifo[:0], g.fifo[g.fifoHead:]...)
			g.fifoHead = 0
		}
	}
	e.scheduleService(gi, t)
}

// forward releases the routed instance on its destination bus.
func (e *oracleEngine) forward(ri int32, t, birth time.Duration) {
	r := &e.routes[ri]
	if r.to.kind == oracleElemCAN {
		e.release(r.to.bus, r.to.idx, t, birth)
		e.markDirty(r.to.bus)
		return
	}
	d := &e.tdmas[r.to.bus]
	d.res.Stats[r.to.idx].Released++
	d.queues[r.to.idx] = append(d.queues[r.to.idx], oracleTDMAEntry{queuedAt: t, birth: birth})
}

// scheduleService arms the gateway's next activation: the nominal
// period grid plus a uniform jitter draw. now clamps the draw so time
// never runs backward when the service jitter exceeds the period (a
// valid bursty model); an early activation is extra service, which the
// eta- guarantee allows.
func (e *oracleEngine) scheduleService(gi int32, now time.Duration) {
	g := &e.gws[gi]
	g.nextNominal += g.spec.Service.Period
	if g.nextNominal >= e.cfg.Duration {
		return
	}
	at := g.nextNominal
	if j := g.spec.Service.Jitter; j > 0 {
		at += time.Duration(g.rng.Int63n(int64(j) + 1))
	}
	if at < now {
		at = now
	}
	e.push(oracleEvent{at: at, kind: oracleEvGwService, idx: gi})
}

// pathDrop charges a lost instance to every path traversing the
// element it was lost at.
func (e *oracleEngine) pathDrop(el oracleElem) {
	for _, pi := range e.memberOf[el] {
		e.pathRes[pi].Dropped++
	}
}

// result assembles the run outcome.
func (e *oracleEngine) result() *Result {
	res := &Result{Duration: e.cfg.Duration}
	for bi := range e.buses {
		r := e.buses[bi].res
		for i := range r.Stats {
			if r.Stats[i].MinResponse < 0 {
				r.Stats[i].MinResponse = 0
			}
		}
		res.Buses = append(res.Buses, r)
	}
	for di := range e.tdmas {
		r := e.tdmas[di].res
		for i := range r.Stats {
			if r.Stats[i].MinResponse < 0 {
				r.Stats[i].MinResponse = 0
			}
		}
		res.TDMABuses = append(res.TDMABuses, r)
	}
	for gi := range e.gws {
		res.Gateways = append(res.Gateways, e.gws[gi].res)
	}
	for pi := range e.pathRes {
		pr := e.pathRes[pi]
		if pr.MinLatency < 0 {
			pr.MinLatency = 0
		}
		res.Paths = append(res.Paths, pr)
	}
	return res
}

// ---------------------------------------------------------------------
// Heaps: the global event heap and the per-component release calendars.
// ---------------------------------------------------------------------

func (e *oracleEngine) push(ev oracleEvent) {
	e.events = append(e.events, ev)
	h := e.events
	child := len(h) - 1
	for child > 0 {
		parent := (child - 1) / 2
		if !oracleEventLess(h[child], h[parent]) {
			break
		}
		h[child], h[parent] = h[parent], h[child]
		child = parent
	}
}

func (e *oracleEngine) pop() oracleEvent {
	h := e.events
	root := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	e.events = h
	parent := 0
	for {
		child := 2*parent + 1
		if child >= len(h) {
			break
		}
		if r := child + 1; r < len(h) && oracleEventLess(h[r], h[child]) {
			child = r
		}
		if !oracleEventLess(h[child], h[parent]) {
			break
		}
		h[parent], h[child] = h[child], h[parent]
		parent = child
	}
	return root
}

// calPush / calPop: the shared indexed release calendar — a binary
// min-heap of stream indices keyed by a release-time accessor, ties by
// stream index — used by both the CAN and the TDMA engines.

func oracleCalLess(at func(int32) time.Duration, a, c int32) bool {
	ta, tc := at(a), at(c)
	if ta != tc {
		return ta < tc
	}
	return a < c
}

func oracleCalPush(h []int32, at func(int32) time.Duration, i int32) []int32 {
	h = append(h, i)
	child := len(h) - 1
	for child > 0 {
		parent := (child - 1) / 2
		if !oracleCalLess(at, h[child], h[parent]) {
			break
		}
		h[child], h[parent] = h[parent], h[child]
		child = parent
	}
	return h
}

func oracleCalPop(h []int32, at func(int32) time.Duration) ([]int32, int32) {
	root := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	parent := 0
	for {
		child := 2*parent + 1
		if child >= len(h) {
			break
		}
		if r := child + 1; r < len(h) && oracleCalLess(at, h[r], h[child]) {
			child = r
		}
		if !oracleCalLess(at, h[child], h[parent]) {
			break
		}
		h[parent], h[child] = h[child], h[parent]
		parent = child
	}
	return h, root
}

// insertionSort orders the due buffer ascending; it is almost always
// tiny and allocates nothing.
func oracleInsertionSort(a []int32) {
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

// sortedErrors returns the injection schedule sorted ascending.
func oracleSortedErrors(errors []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), errors...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// oracleRankHeap is a binary min-heap of static priority ranks. The minimum
// rank wins arbitration; ranks are unique per bus (identifiers are
// unique), so the heap order is a total order.
type oracleRankHeap []int32

// Push inserts a rank.
func (h *oracleRankHeap) Push(r int32) {
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

// PopMin removes the minimum rank.
func (h *oracleRankHeap) PopMin() {
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

// Min returns the minimum rank; the heap must be non-empty.
func (h oracleRankHeap) Min() int32 { return h[0] }

// Len returns the number of queued ranks.
func (h oracleRankHeap) Len() int { return len(h) }

// oracleRing is a fixed-capacity FIFO of stream indices — the software queue
// of a basicCAN controller. Capacity is the number of streams on the
// node: the one-deep sender buffer admits at most one slot per stream,
// so the ring cannot overflow.
type oracleRing struct {
	buf        []int32
	head, size int
}

// newOracleRing returns a ring for up to capacity entries.
func newOracleRing(capacity int) oracleRing {
	return oracleRing{buf: make([]int32, capacity)}
}

// Push appends a stream index.
func (r *oracleRing) Push(i int32) {
	r.buf[(r.head+r.size)%len(r.buf)] = i
	r.size++
}

// Pop removes and returns the oldest entry.
func (r *oracleRing) Pop() int32 {
	v := r.buf[r.head]
	r.head = (r.head + 1) % len(r.buf)
	r.size--
	return v
}

// Head returns the oldest entry without removing it.
func (r *oracleRing) Head() int32 { return r.buf[r.head] }

// Len returns the number of queued entries.
func (r *oracleRing) Len() int { return r.size }

// oracleDrawFrameTime draws the wire time of one transmission under the
// stuffing mode, consuming one RNG value in StuffRandom mode.
func oracleDrawFrameTime(bus can.Bus, mode sim.StuffingMode, rng *rand.Rand, f can.Frame) time.Duration {
	switch mode {
	case sim.StuffNominal:
		return bus.WireTime(f.BitsNominal())
	case sim.StuffRandom:
		span := f.MaxStuffBits()
		return bus.WireTime(f.BitsNominal() + rng.Intn(span+1))
	default:
		return bus.WireTime(f.BitsWorstCase())
	}
}
