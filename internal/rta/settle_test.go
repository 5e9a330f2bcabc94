package rta

import (
	"flag"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/can"
	"repro/internal/errormodel"
	"repro/internal/eventmodel"
)

var updateSettleSeeds = flag.Bool("update-settle-seeds", false,
	"rewrite the settle-* seeds of FuzzAnalyzeMatchesOracle under testdata/fuzz")

// scriptDrawer answers genBus's draws from a script and records the
// bytes a byteDrawer needs to draw the same values. A negative script
// value v stands for n+v (-1 is the largest value of the range); an
// exhausted script draws zeros, as an exhausted fuzz input does.
type scriptDrawer struct {
	script []int64
	bytes  []byte
}

func (d *scriptDrawer) Int63n(n int64) int64 {
	var v int64
	if len(d.script) > 0 {
		v, d.script = d.script[0], d.script[1:]
		if v < 0 {
			v += n
		}
		if v < 0 || v >= n {
			panic(fmt.Sprintf("script value %d outside [0, %d)", v, n))
		}
	}
	for k := (bits.Len64(uint64(n-1)) + 7) / 8; k > 0; k-- {
		d.bytes = append(d.bytes, byte(uint64(v)>>(8*(k-1))))
	}
	return v
}

// Script fragments for genBus's draws.
var (
	noErrors       = []int64{0}
	defaultHorizon = []int64{1}
	periodic       = []int64{1, 0}                       // not sporadic, no jitter
	halfUnbounded  = []int64{1, 8, 1, -1}                // jitter Unbounded/2, DMin = P
	shrinkingCosts = []int64{6, 0, 1}                    // linearErrors{per: 20} alone
	burst1ms5      = []int64{3, int64(800*us - 1), 4, 0} // Burst{1ms, 5, back to back}
)

// settleMsg is one generated message: payload length, period factor
// in percent (50 to 149) and event model draws.
type settleMsg struct {
	dlc   int64
	pct   int64
	event []int64
}

// busScript lists genBus's draws for a standard-identifier bus in
// priority order (no shuffle) with worst-case stuffing, implicit
// deadlines and no explicit deadline, followed by tail draws
// (checkMatchesOracle's perturbation targets and cache capacities).
func busScript(rate int, classic bool, errs, horizon []int64, util int64, msgs []settleMsg, tail ...int64) []int64 {
	rates := map[int]int64{can.Rate125k: 0, can.Rate250k: 1, can.Rate500k: 2, can.Rate1M: 3}
	s := []int64{rates[rate], 0, 0, 1}
	if classic {
		s[3] = 0
	}
	s = append(s, errs...)
	s = append(s, horizon...)
	s = append(s, int64(len(msgs)-1), util-5)
	for _, m := range msgs {
		s = append(s, 0, m.dlc, 1, m.pct-50)
		s = append(s, m.event...)
		s = append(s, 1)
	}
	for i := len(msgs) - 1; i > 0; i-- {
		s = append(s, int64(i))
	}
	return append(s, tail...)
}

func same(n int, m settleMsg) []settleMsg {
	out := make([]settleMsg, n)
	for i := range out {
		out[i] = m
	}
	return out
}

// settleCase is a boundary of the busy-period settling rules, drawn by
// genBus from a script and committed as a FuzzAnalyzeMatchesOracle seed.
// premise checks that the drawn bus is the boundary it names.
type settleCase struct {
	name    string
	script  []int64
	premise func(t *testing.T, p *prepared, want *Report, settled []bool)
}

var settleCases = []settleCase{
	{
		// Two messages at exactly half the bus each: the lowest level
		// sits at load 1 with zero blocking and converges at 2C.
		name:   "exact-load-one",
		script: busScript(can.Rate1M, false, noErrors, defaultHorizon, 100, same(2, settleMsg{8, 100, periodic})),
		premise: func(t *testing.T, p *prepared, want *Report, settled []bool) {
			if p.rep.Utilization != 1 || p.overloaded != 2 || want.Results[1].BusyPeriod == Unschedulable {
				t.Fatalf("utilisation %v, overloaded rank %d, rank 1 busy period %v; want 1, 2 and a fixpoint",
					p.rep.Utilization, p.overloaded, want.Results[1].BusyPeriod)
			}
		},
	},
	{
		// Nine messages at exactly a ninth each: the float sum reads
		// 1 + 2^-52, inside the margin, and the lowest level converges.
		name:   "rounded-load-one",
		script: busScript(can.Rate1M, false, noErrors, defaultHorizon, 100, same(9, settleMsg{8, 100, periodic})),
		premise: func(t *testing.T, p *prepared, want *Report, settled []bool) {
			if p.rep.Utilization <= 1 || p.overloaded != 9 || want.Results[8].BusyPeriod == Unschedulable {
				t.Fatalf("utilisation %v, overloaded rank %d, rank 8 busy period %v; want above 1, 9 and a fixpoint",
					p.rep.Utilization, p.overloaded, want.Results[8].BusyPeriod)
			}
		},
	},
	{
		// A third of the bus each, rank 2 at a period 3% shorter: rank
		// 2 is the first level above load 1 (by 2e-4), and rank 1 still
		// converges.
		name: "just-above-one",
		script: busScript(can.Rate1M, false, noErrors, defaultHorizon, 132,
			[]settleMsg{{8, 100, periodic}, {8, 100, periodic}, {8, 97, periodic}, {8, 100, periodic}}),
		premise: func(t *testing.T, p *prepared, want *Report, settled []bool) {
			if p.overloaded != 2 || want.Results[1].BusyPeriod == Unschedulable || !settled[2] || !settled[3] {
				t.Fatalf("overloaded rank %d, rank 1 busy period %v, settled %v; want 2, a fixpoint and ranks 2-3 settled",
					p.overloaded, want.Results[1].BusyPeriod, settled)
			}
		},
	},
	{
		// A tenth of the bus per message, with bursts of five errors a
		// millisecond: rank 0 converges, rank 1's busy period crosses
		// the horizon below load 1, and the rank rule settles 2 and 3.
		name:   "burst-overload",
		script: busScript(can.Rate1M, false, burst1ms5, defaultHorizon, 40, same(4, settleMsg{8, 100, periodic})),
		premise: func(t *testing.T, p *prepared, want *Report, settled []bool) {
			if p.overloaded != 4 || want.Results[0].BusyPeriod == Unschedulable || want.Results[1].BusyPeriod != Unschedulable ||
				settled[1] || !settled[2] || !settled[3] {
				t.Fatalf("overloaded rank %d, busy periods %v %v, settled %v; want 4, a fixpoint, none and ranks 2-3 settled",
					p.overloaded, want.Results[0].BusyPeriod, want.Results[1].BusyPeriod, settled)
			}
		},
	},
	{
		// An error model outside package errormodel that charges less
		// as CMax grows: rank 0 (short frame) crosses the horizon, rank
		// 1 (long frame) converges, and ranks 2-3 overload the bus.
		// Neither rule may settle a rank.
		name: "custom-errors-overloaded",
		script: busScript(can.Rate1M, false, shrinkingCosts, defaultHorizon, 160,
			[]settleMsg{{0, 149, periodic}, {8, 149, periodic}, {8, 50, periodic}, {8, 50, periodic}}),
		premise: func(t *testing.T, p *prepared, want *Report, settled []bool) {
			if p.settle || p.overloaded != 2 || want.Results[0].BusyPeriod != Unschedulable || want.Results[1].BusyPeriod == Unschedulable {
				t.Fatalf("settle %v, overloaded rank %d, busy periods %v %v; want false, 2, none and a fixpoint",
					p.settle, p.overloaded, want.Results[0].BusyPeriod, want.Results[1].BusyPeriod)
			}
			for i, s := range settled {
				if s {
					t.Fatalf("rank %d settled under a custom error model", i)
				}
			}
		},
	},
	{
		// The single-instance ablation over a bus at load 1.5: rank 1's
		// queueing delay sees only rank 0's 0.75 and converges.
		name:   "classic-overloaded",
		script: busScript(can.Rate1M, true, noErrors, defaultHorizon, 150, same(2, settleMsg{8, 100, periodic})),
		premise: func(t *testing.T, p *prepared, want *Report, settled []bool) {
			if p.settle || p.overloaded != 1 || want.Results[1].WCRT == Unschedulable {
				t.Fatalf("settle %v, overloaded rank %d, rank 1 WCRT %v; want false, 1 and a bound",
					p.settle, p.overloaded, want.Results[1].WCRT)
			}
		},
	},
	{
		// Rank 1 carries an Unbounded/2 jitter (paced by DMin = P), so
		// it is unschedulable without a busy period; rank 2 converges.
		name: "unbounded-jitter-above",
		script: busScript(can.Rate1M, false, noErrors, defaultHorizon, 60,
			[]settleMsg{{8, 100, periodic}, {8, 100, halfUnbounded}, {8, 100, periodic}}),
		premise: unboundedAbove,
	},
	{
		// The same bus, with the cache of each AnalyzeCached/edited pass
		// warmed on a copy whose rank 2 differs: rank 1 is a cached
		// unschedulable hit, and rank 2 is analysed after it.
		name: "cached-unbounded-jitter-above",
		script: busScript(can.Rate1M, false, noErrors, defaultHorizon, 60,
			[]settleMsg{{8, 100, periodic}, {8, 100, halfUnbounded}, {8, 100, periodic}},
			2, 0, 2, 0),
		premise: unboundedAbove,
	},
	{
		// A 1 ns horizon: rank 0's first iterate is its fixpoint, above
		// the horizon; rank 1's first iterate crosses it, and the rank
		// rule settles rank 2.
		name:   "first-iterate-horizon",
		script: busScript(can.Rate1M, false, noErrors, []int64{0, 0}, 90, same(3, settleMsg{8, 100, periodic})),
		premise: func(t *testing.T, p *prepared, want *Report, settled []bool) {
			hz := p.rep.Config.Horizon
			if hz != 1 || want.Results[0].BusyPeriod <= hz || want.Results[0].BusyPeriod == Unschedulable ||
				want.Results[1].BusyPeriod != Unschedulable || settled[1] || !settled[2] {
				t.Fatalf("horizon %v, busy periods %v %v, settled %v; want 1ns, a fixpoint above it, none and rank 2 settled",
					hz, want.Results[0].BusyPeriod, want.Results[1].BusyPeriod, settled)
			}
		},
	},
}

func unboundedAbove(t *testing.T, p *prepared, want *Report, settled []bool) {
	if p.ordered[1].Event.Jitter != eventmodel.Unbounded/2 || want.Results[1].WCRT != Unschedulable ||
		want.Results[2].BusyPeriod == Unschedulable || settled[2] {
		t.Fatalf("rank 1 jitter %v WCRT %v, rank 2 busy period %v, settled %v; want Unbounded/2, none, a fixpoint, rank 2 iterated",
			p.ordered[1].Event.Jitter, want.Results[1].WCRT, want.Results[2].BusyPeriod, settled)
	}
}

// settledRanks analyses every rank with one kernel, as Analyze does, and
// reports which ranks it settled without iterating: every busy-period
// fixpoint of rank i derives stream i's eta+ step, so a rank whose memo
// line is still empty after its analysis never iterated.
func settledRanks(p *prepared) []bool {
	k := newKernel(p)
	out := make([]bool, len(p.ordered))
	for i := range p.ordered {
		res := k.analyzeOne(i, 0)
		s := k.memo.streams[i]
		out[i] = res.BusyPeriod == Unschedulable && s.lo == s.hi
	}
	return out
}

// The settling rules' boundaries, each drawn by genBus from the
// committed settle-* seed of FuzzAnalyzeMatchesOracle: the seed must
// draw the bus its premise names, and every entry point must match the
// cold oracle on it.
func TestSettleBoundaries(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzAnalyzeMatchesOracle")
	for _, tc := range settleCases {
		t.Run(tc.name, func(t *testing.T) {
			sd := &scriptDrawer{script: tc.script}
			genBus(sd)
			for len(sd.script) > 0 { // tail draws, one byte each
				sd.Int63n(256)
			}
			path := filepath.Join(dir, "settle-"+tc.name)
			if *updateSettleSeeds {
				if err := os.WriteFile(path, encodeSeed(sd.bytes), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			data, err := decodeSeed(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(data) != string(sd.bytes) {
				t.Fatalf("%s does not draw the scripted bus (run with -update-settle-seeds)", path)
			}
			d := &byteDrawer{b: data}
			msgs, cfg := genBus(d)
			p, err := prepare(msgs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracleAnalyze(msgs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			tc.premise(t, p, want, settledRanks(p))
			checkMatchesOracle(t, d, msgs, cfg)
		})
	}
}

func encodeSeed(b []byte) []byte {
	var s strings.Builder
	s.WriteString("go test fuzz v1\n[]byte(\"")
	for _, c := range b {
		fmt.Fprintf(&s, "\\x%02x", c)
	}
	s.WriteString("\")\n")
	return []byte(s.String())
}

func decodeSeed(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	body, ok := strings.CutPrefix(string(raw), "go test fuzz v1\n[]byte(")
	if !ok {
		return nil, fmt.Errorf("%s: not a one-argument []byte corpus file", path)
	}
	body = strings.TrimSuffix(strings.TrimSpace(body), ")")
	s, err := strconv.Unquote(body)
	return []byte(s), err
}

// A level at exactly load 1 clears no margin, and the first level above
// it settles with every level below: the load rule's threshold at both
// sides, on hand-built buses.
func TestLoadRuleThreshold(t *testing.T) {
	cfg := Config{Bus: can.Bus{Name: "hs", BitRate: can.Rate500k}}
	c := cfg.Bus.FrameTime(can.Frame{DLC: 8}, cfg.Stuffing)
	msg := func(id can.ID, p time.Duration) Message {
		return Message{Name: fmt.Sprintf("m%d", id), Frame: can.Frame{ID: id, DLC: 8}, Event: eventmodel.Periodic(p)}
	}
	for _, tc := range []struct {
		name       string
		msgs       []Message
		overloaded int
	}{
		{"halves", []Message{msg(1, 2*c), msg(2, 2*c)}, 2},
		{"one nanosecond long", []Message{msg(1, 2*c), msg(2, 2*c+1), msg(3, 4*c)}, 2},
		{"one nanosecond short", []Message{msg(1, 2*c), msg(2, 2*c-1), msg(3, 1000*c)}, 1},
	} {
		p, err := prepare(tc.msgs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if p.overloaded != tc.overloaded {
			t.Errorf("%s: overloaded rank %d, want %d (utilisation %v)", tc.name, p.overloaded, tc.overloaded, p.rep.Utilization)
		}
		checkMatchesOracle(t, &byteDrawer{}, tc.msgs, cfg)
	}
}

// Error models whose parameters break the rules' premise (E >= 0 and
// monotone; a negative interval charges negative, falling overhead)
// run cold, neither warm-started nor settled, and match the oracle;
// nested bursts inside a Composite are checked as well as top-level
// ones.
func TestSettleSkipsInvalidErrorModels(t *testing.T) {
	cfg := Config{Bus: can.Bus{Name: "hs", BitRate: can.Rate500k}}
	c := cfg.Bus.FrameTime(can.Frame{DLC: 8}, cfg.Stuffing)
	p := c * 5 / 3 // load 0.6 each
	msgs := []Message{
		{Name: "a", Frame: can.Frame{ID: 1, DLC: 8}, Event: eventmodel.Periodic(p)},
		{Name: "b", Frame: can.Frame{ID: 2, DLC: 8}, Event: eventmodel.Periodic(p)},
	}
	for _, errs := range []errormodel.Model{
		errormodel.Sporadic{Interval: -time.Millisecond},
		errormodel.Composite{errormodel.Burst{Interval: -time.Millisecond, Length: 1}},
	} {
		cfg.Errors = errs
		p, err := prepare(msgs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if p.settle || p.warmCap != 0 || p.overloaded != 1 {
			t.Fatalf("%v: settle %v, warm cap %v, overloaded rank %d; want false, 0, 1", errs, p.settle, p.warmCap, p.overloaded)
		}
		checkMatchesOracle(t, &byteDrawer{}, msgs, cfg)
	}
}
