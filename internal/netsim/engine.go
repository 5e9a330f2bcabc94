package netsim

import (
	"math/rand"
	"time"

	"repro/internal/gateway"
	"repro/internal/sim"
)

// The network engine steps one CAN bus state machine of package sim
// per bus (sim.Bus: release calendar, arbitration, transmission start)
// from one global event heap. Within one instant, events are processed
// in a fixed kind order:
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
	evRelease = iota
	evTDMARelease
	evGwService
	evTxEnd
	evTDMADone
	evSlot
)

// event is one entry of the global calendar.
type event struct {
	at    time.Duration
	kind  int8
	idx   int32         // component index (bus, TDMA bus or gateway)
	a     int32         // payload: stream (evTDMADone) or slot (evSlot)
	birth time.Duration // payload: origin release instant (evTDMADone)
}

func eventLess(x, y event) bool {
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
type elem struct {
	kind int8 // 0 = CAN bus, 1 = TDMA bus
	bus  int32
	idx  int32 // stream index on the bus
}

const (
	elemCAN  = int8(0)
	elemTDMA = int8(1)
)

// busEngine is one CAN bus: package sim's state machine plus what the
// network adds — the bus's place on the global calendar and the origin
// instants of gateway-fed instances.
type busEngine struct {
	can    sim.Bus
	fed    []bool          // streams released by gateway forwarding
	origin []time.Duration // origin instant of each fed stream's latest instance

	busy          bool
	inFlight      int32
	inFlightBirth time.Duration
	armedRelease  time.Duration
	dirty         bool
}

// tdmaEntry is one queued instance waiting for its slot.
type tdmaEntry struct {
	queuedAt time.Duration
	birth    time.Duration
}

// tdmaEngine is one time-triggered segment: per-message FIFO queues
// drained by the static slot cycle.
type tdmaEngine struct {
	spec TDMABusSpec
	rng  *rand.Rand
	rel  []sim.Releases
	cal  sim.Calendar

	queues     [][]tdmaEntry
	slotOwner  []int32
	slotOffset []time.Duration
	wire       []time.Duration
	cycle      time.Duration

	armedRelease time.Duration

	res BusResult
}

// gwEntry is one instance queued inside a gateway.
type gwEntry struct {
	route int32 // global route index
	birth time.Duration
}

// gwSlot is one per-message buffer of a PerMessageBuffer gateway.
type gwSlot struct {
	occupied bool
	birth    time.Duration
}

// gwEngine is one store-and-forward gateway.
type gwEngine struct {
	spec GatewaySpec
	rng  *rand.Rand

	fifo     []gwEntry // SharedFIFO queue
	fifoHead int
	slots    []gwSlot // PerMessageBuffer, indexed like routes
	occupied int
	nextSlot int     // PerMessageBuffer round-robin scan position
	routes   []int32 // global route indices through this gateway

	nextNominal time.Duration

	res GatewayResult
}

// size returns the current queue occupancy.
func (g *gwEngine) size() int {
	if g.spec.Policy == gateway.PerMessageBuffer {
		return g.occupied
	}
	return len(g.fifo) - g.fifoHead
}

// resolvedRoute is a route with all names resolved to indices.
type resolvedRoute struct {
	gw       int32
	slot     int32 // per-gateway buffer slot (PerMessageBuffer)
	from, to elem
}

// resolvedPath is a path with resolved hops.
type resolvedPath struct {
	name string
	hops []elem
}

// engine is the global network calendar.
type engine struct {
	topo *Topology
	cfg  Config

	buses []busEngine
	tdmas []tdmaEngine
	gws   []gwEngine

	routes     []resolvedRoute
	routesFrom map[elem][]int32
	lastHop    map[elem][]int32
	memberOf   map[elem][]int32
	paths      []resolvedPath
	pathRes    []PathResult

	events    []event
	dirtyList []int32
}

// subSeed derives a component RNG seed from the run seed (splitmix64),
// so components draw independent streams regardless of interleaving.
func subSeed(seed int64, salt uint64) int64 {
	z := uint64(seed) + (salt+1)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

func newEngine(topo *Topology, cfg Config) (*engine, error) {
	e := &engine{
		topo:       topo,
		cfg:        cfg,
		routesFrom: map[elem][]int32{},
		lastHop:    map[elem][]int32{},
		memberOf:   map[elem][]int32{},
	}

	// Name resolution tables.
	busIdx := map[string]int32{}
	tdmaIdx := map[string]int32{}
	gwIdx := map[string]int32{}
	streamIdx := map[Ref]elem{}
	for i, b := range topo.Buses {
		busIdx[b.Name] = int32(i)
		for j, m := range b.Messages {
			streamIdx[Ref{b.Name, m.Name}] = elem{kind: elemCAN, bus: int32(i), idx: int32(j)}
		}
	}
	for i, d := range topo.TDMABuses {
		tdmaIdx[d.Name] = int32(i)
		for j, m := range d.Messages {
			streamIdx[Ref{d.Name, m.Name}] = elem{kind: elemTDMA, bus: int32(i), idx: int32(j)}
		}
	}
	for i, g := range topo.Gateways {
		gwIdx[g.Name] = int32(i)
	}
	external := map[elem]bool{}
	for _, r := range topo.Routes {
		external[streamIdx[r.To]] = true
	}

	salt := uint64(0)
	nextSeed := func() int64 {
		s := subSeed(cfg.Seed, salt)
		salt++
		return s
	}

	// CAN buses. The per-bus fed marks and origin slots are cut from one
	// array each.
	e.buses = make([]busEngine, len(topo.Buses))
	streams := 0
	for _, b := range topo.Buses {
		streams += len(b.Messages)
	}
	fed := make([]bool, streams)
	origin := make([]time.Duration, streams)
	for bi := range topo.Buses {
		spec := topo.Buses[bi]
		n := len(spec.Messages)
		b := &e.buses[bi]
		b.fed, fed = fed[:n:n], fed[n:]
		b.origin, origin = origin[:n:n], origin[n:]
		for i := range b.fed {
			b.fed[i] = external[elem{kind: elemCAN, bus: int32(bi), idx: int32(i)}]
		}
		b.can = sim.NewBus(spec.Messages, sim.Config{
			Bus: spec.Bus, Duration: cfg.Duration, Seed: nextSeed(),
			Controller: spec.Controller, Stuffing: spec.Stuffing, Errors: spec.Errors,
			RecordTrace: cfg.RecordTrace, TraceLimit: cfg.TraceLimit,
		}, b.fed)
		b.inFlight = -1
		b.armedRelease = -1
	}

	// TDMA segments.
	e.tdmas = make([]tdmaEngine, len(topo.TDMABuses))
	for di := range topo.TDMABuses {
		spec := topo.TDMABuses[di]
		n := len(spec.Messages)
		d := &e.tdmas[di]
		d.spec = spec
		d.rng = rand.New(rand.NewSource(nextSeed()))
		d.rel = make([]sim.Releases, n)
		d.cal = sim.NewCalendar(n)
		d.queues = make([][]tdmaEntry, n)
		d.wire = make([]time.Duration, n)
		d.cycle = spec.Schedule.Cycle()
		d.armedRelease = -1
		d.res = BusResult{Name: spec.Name, Stats: make([]sim.Stats, n)}
		owner := map[string]int32{}
		for i, m := range spec.Messages {
			owner[m.Name] = int32(i)
			d.res.Stats[i] = sim.Stats{Name: m.Name, MinResponse: -1}
			d.rel[i] = sim.NewReleases(m.Event, 0)
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
		for i := range d.rel {
			if external[elem{kind: elemTDMA, bus: int32(di), idx: int32(i)}] {
				continue
			}
			d.rel[i].Advance(d.rng, cfg.Duration)
			d.cal.Push(int32(i), d.rel[i].Next())
		}
	}

	// Gateways and routes.
	e.gws = make([]gwEngine, len(topo.Gateways))
	for gi := range topo.Gateways {
		g := &e.gws[gi]
		g.spec = topo.Gateways[gi]
		g.rng = rand.New(rand.NewSource(nextSeed()))
		g.res = GatewayResult{Name: g.spec.Name}
	}
	e.routes = make([]resolvedRoute, len(topo.Routes))
	for ri, r := range topo.Routes {
		gi := gwIdx[r.Gateway]
		g := &e.gws[gi]
		rr := resolvedRoute{
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
			g.slots = make([]gwSlot, len(g.routes))
		}
	}

	// Paths.
	e.paths = make([]resolvedPath, len(topo.Paths))
	e.pathRes = make([]PathResult, len(topo.Paths))
	for pi, p := range topo.Paths {
		rp := resolvedPath{name: p.Name}
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
				e.push(event{at: off, kind: evSlot, idx: int32(di), a: int32(si)})
			}
		}
	}
	for gi := range e.gws {
		e.scheduleService(int32(gi), 0)
	}
	return e, nil
}

// run drains the global calendar.
func (e *engine) run() {
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

func (e *engine) dispatch(ev event, t time.Duration) {
	switch ev.kind {
	case evRelease:
		b := &e.buses[ev.idx]
		b.armedRelease = -1
		b.can.ReleaseDue(t)
		e.armRelease(ev.idx)
		e.markDirty(ev.idx)
	case evTDMARelease:
		d := &e.tdmas[ev.idx]
		d.armedRelease = -1
		e.releaseDueTDMA(ev.idx, t)
		e.armTDMARelease(ev.idx)
	case evGwService:
		e.service(ev.idx, t)
	case evTxEnd:
		b := &e.buses[ev.idx]
		if b.inFlight >= 0 {
			e.onComplete(elem{kind: elemCAN, bus: ev.idx, idx: b.inFlight}, t, b.inFlightBirth)
			b.inFlight = -1
		}
		b.busy = false
		e.markDirty(ev.idx)
	case evTDMADone:
		e.onComplete(elem{kind: elemTDMA, bus: ev.idx, idx: ev.a}, t, ev.birth)
	case evSlot:
		e.serveSlot(ev.idx, ev.a, t)
	}
}

func (e *engine) markDirty(bi int32) {
	b := &e.buses[bi]
	if !b.dirty {
		b.dirty = true
		e.dirtyList = append(e.dirtyList, bi)
	}
}

// ---------------------------------------------------------------------
// CAN bus driving: the state machine is package sim's.
// ---------------------------------------------------------------------

// tryStart starts one transmission (or error recovery) on idle bus bi
// at now, scheduling its end on the global calendar.
func (e *engine) tryStart(bi int32, now time.Duration) {
	b := &e.buses[bi]
	w, until, sent := b.can.Start(now)
	if w < 0 {
		return
	}
	b.busy = true
	b.inFlight = -1
	if sent {
		b.inFlight = w
		b.inFlightBirth = b.originOf(w)
	}
	e.push(event{at: until, kind: evTxEnd, idx: bi})
}

// originOf returns the instant the path of stream w's latest instance
// began: a local release is its own origin, a forwarded instance
// carries the origin of its first hop.
func (b *busEngine) originOf(w int32) time.Duration {
	if b.fed[w] {
		return b.origin[w]
	}
	return b.can.QueuedAt(w)
}

// armRelease schedules the bus's next local release wake-up.
func (e *engine) armRelease(bi int32) {
	b := &e.buses[bi]
	next := b.can.NextRelease()
	if next < 0 || b.armedRelease == next {
		return
	}
	b.armedRelease = next
	e.push(event{at: next, kind: evRelease, idx: bi})
}

// ---------------------------------------------------------------------
// TDMA segment mechanics.
// ---------------------------------------------------------------------

// releaseDueTDMA queues local time-triggered releases up to t.
func (e *engine) releaseDueTDMA(di int32, t time.Duration) {
	d := &e.tdmas[di]
	for _, i := range d.cal.Due(t) {
		rel := &d.rel[i]
		for at := rel.Next(); at >= 0 && at <= t; at = rel.Next() {
			d.res.Stats[i].Released++
			d.queues[i] = append(d.queues[i], tdmaEntry{queuedAt: at, birth: at})
			rel.Advance(d.rng, e.cfg.Duration)
		}
		d.cal.Push(i, rel.Next())
	}
}

// armTDMARelease schedules the segment's next release wake-up.
func (e *engine) armTDMARelease(di int32) {
	d := &e.tdmas[di]
	next := d.cal.Next()
	if next < 0 || d.armedRelease == next {
		return
	}
	d.armedRelease = next
	e.push(event{at: next, kind: evTDMARelease, idx: di})
}

// serveSlot transmits the head of the owner's queue, if any, and
// re-schedules the slot one cycle later.
func (e *engine) serveSlot(di, si int32, t time.Duration) {
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
					Message: d.spec.Messages[owner].Name, Node: d.spec.Name, Attempt: 1,
				})
			}
		}
		e.push(event{at: end, kind: evTDMADone, idx: di, a: owner, birth: entry.birth})
	}
	if next := t + d.cycle; next < e.cfg.Duration {
		e.push(event{at: next, kind: evSlot, idx: di, a: si})
	}
}

// ---------------------------------------------------------------------
// Gateway mechanics.
// ---------------------------------------------------------------------

// onComplete fans a delivered instance out: gateway arrivals for every
// route sourced at the element, and path-latency records where the
// element closes a traced path.
func (e *engine) onComplete(el elem, t, birth time.Duration) {
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
func (e *engine) enqueue(ri int32, t, birth time.Duration) {
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
	g.fifo = append(g.fifo, gwEntry{route: ri, birth: birth})
	e.sampleBacklog(g)
}

// sampleBacklog folds the current occupancy into the observed maximum.
func (e *engine) sampleBacklog(g *gwEngine) {
	if occ := g.size(); occ > g.res.MaxBacklog {
		g.res.MaxBacklog = occ
	}
}

// service runs one forwarding activation of gateway gi.
func (e *engine) service(gi int32, t time.Duration) {
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
func (e *engine) forward(ri int32, t, birth time.Duration) {
	r := &e.routes[ri]
	if r.to.kind == elemCAN {
		b := &e.buses[r.to.bus]
		b.can.Release(r.to.idx, t)
		b.origin[r.to.idx] = birth
		e.markDirty(r.to.bus)
		return
	}
	d := &e.tdmas[r.to.bus]
	d.res.Stats[r.to.idx].Released++
	d.queues[r.to.idx] = append(d.queues[r.to.idx], tdmaEntry{queuedAt: t, birth: birth})
}

// scheduleService arms the gateway's next activation: the nominal
// period grid plus a uniform jitter draw. now clamps the draw so time
// never runs backward when the service jitter exceeds the period (a
// valid bursty model); an early activation is extra service, which the
// eta- guarantee allows.
func (e *engine) scheduleService(gi int32, now time.Duration) {
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
	e.push(event{at: at, kind: evGwService, idx: gi})
}

// pathDrop charges an instance lost inside a gateway to every path
// traversing the element it was routed to. Sender-buffer overwrites on
// CAN hops are charged from the bus statistics when the run ends.
func (e *engine) pathDrop(el elem) {
	for _, pi := range e.memberOf[el] {
		e.pathRes[pi].Dropped++
	}
}

// result assembles the run outcome.
func (e *engine) result() *Result {
	res := &Result{Duration: e.cfg.Duration}
	for bi := range e.buses {
		b := &e.buses[bi]
		r := b.can.Result()
		res.Buses = append(res.Buses, BusResult{
			Name: e.topo.Buses[bi].Name, Stats: r.Stats, BusBusy: r.BusBusy, Errors: r.Errors,
			Trace: r.Trace, TraceTruncated: r.TraceTruncated,
		})
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
		for _, el := range e.paths[pi].hops {
			if el.kind == elemCAN {
				pr.Dropped += res.Buses[el.bus].Stats[el.idx].Lost
			}
		}
		if pr.MinLatency < 0 {
			pr.MinLatency = 0
		}
		res.Paths = append(res.Paths, pr)
	}
	return res
}

// ---------------------------------------------------------------------
// The global event heap.
// ---------------------------------------------------------------------

func (e *engine) push(ev event) {
	e.events = append(e.events, ev)
	h := e.events
	child := len(h) - 1
	for child > 0 {
		parent := (child - 1) / 2
		if !eventLess(h[child], h[parent]) {
			break
		}
		h[child], h[parent] = h[parent], h[child]
		child = parent
	}
}

func (e *engine) pop() event {
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
		if r := child + 1; r < len(h) && eventLess(h[r], h[child]) {
			child = r
		}
		if !eventLess(h[child], h[parent]) {
			break
		}
		h[parent], h[child] = h[child], h[parent]
		parent = child
	}
	return root
}
