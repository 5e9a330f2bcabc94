package tdma

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/can"
	"repro/internal/eventmodel"
)

// drawer supplies a generator's choices: *rand.Rand in the differential
// tests, the fuzzer's bytes in the fuzz target.
type drawer interface {
	Int63n(n int64) int64
}

func intn(d drawer, n int) int { return int(d.Int63n(int64(n))) }

// byteDrawer draws from a fuzz input, as many bytes per draw as the
// range needs; an exhausted input draws zeros.
type byteDrawer struct{ b []byte }

func (d *byteDrawer) Int63n(n int64) int64 {
	var v uint64
	for k := (bits.Len64(uint64(n-1)) + 7) / 8; k > 0 && len(d.b) > 0; k-- {
		v = v<<8 | uint64(d.b[0])
		d.b = d.b[1:]
	}
	return int64(v % uint64(n))
}

// maxGenPeriod keeps every product the linear oracle evaluates inside
// int64: its deepest step computes 2^20 * P.
const maxGenPeriod = 1<<43 - 1

// genSchedule draws a schedule of 1 to 6 slots and one message per
// slot: periods log-uniform from below the cycle up to 2^43 ns,
// periodic, sporadic and bursty models, jitters up to and past
// eventmodel.Unbounded/2.
func genSchedule(d drawer) ([]Message, Schedule) {
	n := 1 + intn(d, 6)
	var sched Schedule
	msgs := make([]Message, n)
	for i := range msgs {
		f := can.Frame{ID: can.ID(i), DLC: intn(d, 9)}
		c := bus.FrameTime(f, can.StuffingWorstCase)
		name := fmt.Sprintf("m%d", i)
		sched.Slots = append(sched.Slots, Slot{Owner: name, Length: c + time.Duration(d.Int63n(int64(2*ms)))})
		msgs[i] = Message{Name: name, Frame: f}
	}
	cycle := sched.Cycle()
	for i := range msgs {
		// P near the cycle half of the time, else log-uniform up to the
		// top of the range.
		shift := 0
		if intn(d, 2) > 0 {
			shift = intn(d, 46)
		}
		p := cycle/4 + time.Duration(d.Int63n(int64(cycle)))
		for ; shift > 0 && p <= maxGenPeriod/2; shift-- {
			p *= 2
		}
		p += time.Duration(d.Int63n(int64(p)))
		p = min(p, maxGenPeriod)
		ev := eventmodel.Model{Period: p, Sporadic: intn(d, 4) == 0}
		switch intn(d, 6) {
		case 0:
		case 1:
			ev.Jitter = time.Duration(d.Int63n(int64(p)))
		case 2:
			ev.Jitter = time.Duration(d.Int63n(int64(p)))
			ev.DMin = time.Duration(d.Int63n(int64(p) + 1))
		case 3, 4:
			// Long bursts: J up to 2^20 periods, the backlog's depth.
			ev.Jitter = p + time.Duration(d.Int63n(int64(min(p<<20, eventmodel.Unbounded-p))))
			ev.DMin = time.Duration(1 + d.Int63n(int64(p)))
		default:
			huge := []time.Duration{eventmodel.Unbounded/2 - 1, eventmodel.Unbounded / 2, eventmodel.Unbounded - 1, eventmodel.Unbounded}
			ev.Jitter = huge[intn(d, len(huge))]
			ev.DMin = time.Duration(1 + d.Int63n(int64(p)))
		}
		msgs[i].Event = ev
		if intn(d, 6) == 0 {
			msgs[i].Deadline = time.Duration(1 + d.Int63n(int64(p)))
		}
	}
	return msgs, sched
}

func checkMatchesOracle(t *testing.T, msgs []Message, sched Schedule) {
	t.Helper()
	rep, err := Analyze(msgs, sched, bus, can.StuffingWorstCase)
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range rep.Results {
		if want := oracleAnalyzeOne(msgs[i], got.C, rep.Cycle); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v (cycle %v, C %v):\n got %+v\nwant %+v",
				msgs[i].Event, rep.Cycle, got.C, got, want)
		}
	}
}

// The galloping backlog search must return results bit-identical to the
// linear scan it replaced.
func TestAnalyzeMatchesOracle(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 15
	}
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < trials; trial++ {
		msgs, sched := genSchedule(rng)
		checkMatchesOracle(t, msgs, sched)
	}
}

func FuzzTDMAMatchesOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x03\x08\x01\x00\x04\x10\x22\x05\x30\x11\x02\x03\x2a\x07\x01\x04"))
	f.Fuzz(func(t *testing.T, data []byte) {
		msgs, sched := genSchedule(&byteDrawer{b: data})
		checkMatchesOracle(t, msgs, sched)
	})
}

// Depths at both ends of the search: a spacing that reaches the cycle
// at n = 2, at exactly maxBacklog, and one depth too late.
func TestBacklogDepthEdges(t *testing.T) {
	const cycle = 10 * ms
	burst := func(n int) eventmodel.Model {
		// delta-(m) = (m-1)*cycle - J from m-1 = J/(P-d) on: the spacing
		// first reaches the cycle at m = n.
		d := time.Millisecond
		return eventmodel.Model{Period: cycle, Jitter: time.Duration(n-1) * (cycle - d), DMin: d}
	}
	for _, tc := range []struct {
		name string
		ev   eventmodel.Model
		n0   int
		ok   bool
	}{
		{"at once", eventmodel.Periodic(cycle), 2, true},
		{"over-rate", eventmodel.Periodic(cycle - 1), 0, false},
		{"deepest", burst(maxBacklog), maxBacklog, true},
		{"one too deep", burst(maxBacklog + 1), 0, false},
	} {
		n0, ok := backlogDepth(tc.ev, 100*us, cycle)
		if n0 != tc.n0 || ok != tc.ok {
			t.Errorf("%s: backlogDepth = %d, %v; want %d, %v", tc.name, n0, ok, tc.n0, tc.ok)
		}
		m := Message{Name: "m", Event: tc.ev}
		if got, want := analyzeOne(m, 100*us, cycle), oracleAnalyzeOne(m, 100*us, cycle); got != want {
			t.Errorf("%s: got %+v, want %+v", tc.name, got, want)
		}
	}
}

// A period or cycle whose 2^20-deep backlog leaves int64 stops the
// search at the last depth it can evaluate (4 for P = 2^61), and such a
// stream reports unschedulable unless its depth comes earlier.
func TestBacklogDepthStaysInsideInt64(t *testing.T) {
	p := eventmodel.Unbounded / 4
	early := eventmodel.Model{Period: p}
	if n0, ok := backlogDepth(early, 100*us, 10*ms); n0 != 2 || !ok {
		t.Errorf("huge period: backlogDepth = %d, %v; want 2, true", n0, ok)
	}
	// The spacing stays at DMin < cycle up to depth 4 and reaches the
	// cycle at depth 5, whose spacing needs delta-(6) = 5P - J.
	late := eventmodel.Model{Period: p, Jitter: eventmodel.Unbounded - 1, DMin: time.Millisecond}
	if n0, ok := backlogDepth(late, 100*us, 10*ms); ok {
		t.Errorf("depth past int64: backlogDepth = %d, true; want none", n0)
	}
	if n0, ok := backlogDepth(early, 100*us, eventmodel.Unbounded/2); ok {
		t.Errorf("cycle whose product leaves int64: backlogDepth = %d, true; want none", n0)
	}
}
