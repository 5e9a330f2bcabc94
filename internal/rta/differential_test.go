package rta

import (
	"math/bits"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/can"
	"repro/internal/contenthash"
	"repro/internal/errormodel"
	"repro/internal/eventmodel"
)

// drawer supplies a generator's choices: *rand.Rand in the differential
// tests, the fuzzer's bytes in the fuzz targets.
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

// linearErrors is an error model outside package errormodel: monotone
// in t as the interface asks, but charging fractions of an error cost
// and less as CMax grows, so the kernels must run it cold.
type linearErrors struct{ per time.Duration }

func (e linearErrors) Overhead(t time.Duration, ctx errormodel.Context) time.Duration {
	if t < 0 {
		return 0
	}
	return t * time.Microsecond / (e.per * ctx.CMax / time.Microsecond)
}

func (e linearErrors) Name() string { return "linear" }

func genErrors(d drawer) errormodel.Model {
	interval := func() time.Duration { return time.Duration(1+d.Int63n(int64(50*ms))) + 200*us }
	burst := func() errormodel.Burst {
		b := errormodel.Burst{Interval: interval(), Length: 1 + intn(d, 5)}
		if intn(d, 3) > 0 {
			b.Gap = time.Duration(d.Int63n(int64(b.Interval) / int64(b.Length)))
		}
		return b
	}
	switch intn(d, 7) {
	case 0:
		return nil
	case 1:
		return errormodel.None{}
	case 2:
		return errormodel.Sporadic{Interval: interval()}
	case 3:
		return burst()
	case 4:
		return errormodel.Composite{errormodel.Sporadic{Interval: interval()}, burst()}
	case 5:
		return errormodel.Composite{}
	default:
		linear := linearErrors{per: time.Duration(20 + d.Int63n(200))}
		if intn(d, 2) == 0 {
			return errormodel.Composite{errormodel.Sporadic{Interval: interval()}, linear}
		}
		return linear
	}
}

// genEvent draws a periodic, sporadic or bursty (J >= P with DMin)
// model, with a jitter up to and past eventmodel.Unbounded/2 now and
// then.
func genEvent(d drawer, p time.Duration) eventmodel.Model {
	ev := eventmodel.Model{Period: p, Sporadic: intn(d, 4) == 0}
	switch intn(d, 10) {
	case 0, 1, 2:
	case 3, 4, 5:
		ev.Jitter = time.Duration(d.Int63n(int64(p)))
	case 6, 7:
		ev.Jitter = p + time.Duration(d.Int63n(int64(4*p)))
		ev.DMin = time.Duration(1 + d.Int63n(int64(p)))
	case 8:
		huge := []time.Duration{eventmodel.Unbounded/2 - 1, eventmodel.Unbounded / 2, eventmodel.Unbounded - 1, eventmodel.Unbounded}
		ev.Jitter = huge[intn(d, len(huge))]
		ev.DMin = time.Duration(1 + d.Int63n(int64(p)))
	default:
		ev.Jitter = time.Duration(d.Int63n(int64(p)))
		ev.DMin = time.Duration(d.Int63n(int64(p) + 1))
	}
	return ev
}

// genBus draws one bus and its configuration: 1 to 120 messages of both
// identifier formats at a target utilisation of 5% to 160%, every error
// model kind, both stuffing modes, both deadline models, the classic
// single-instance ablation, and now and then a custom horizon small
// enough that horizon failures land at any rank.
func genBus(d drawer) ([]Message, Config) {
	rates := []int{can.Rate125k, can.Rate250k, can.Rate500k, can.Rate1M}
	cfg := Config{
		Bus:                   can.Bus{Name: "gen", BitRate: rates[intn(d, len(rates))]},
		Stuffing:              can.Stuffing(intn(d, 2)),
		DeadlineModel:         DeadlineModel(intn(d, 2)),
		ClassicSingleInstance: intn(d, 5) == 0,
		Errors:                genErrors(d),
	}
	if intn(d, 3) == 0 {
		cfg.Horizon = time.Duration(1 + d.Int63n(int64(30*ms)))
	}
	n := 1 + intn(d, 120)
	utilPct := int64(5 + intn(d, 156))
	msgs := make([]Message, n)
	for i := range msgs {
		f := can.Frame{ID: can.ID(16*i + intn(d, 16)), DLC: intn(d, 9)}
		if intn(d, 6) == 0 {
			f.Format = can.Extended29Bit
			f.ID = f.ID<<18 | can.ID(intn(d, 1<<18))
		}
		c := cfg.Bus.FrameTime(f, cfg.Stuffing)
		// Spread periods around the share of the target utilisation.
		p := time.Duration(int64(c) * int64(n) * 100 / utilPct * (50 + d.Int63n(100)) / 100)
		msgs[i] = Message{Name: "m" + string(rune('A'+i%26)) + string(rune('0'+i/26)), Frame: f, Event: genEvent(d, p)}
		if intn(d, 8) == 0 {
			msgs[i].Deadline = time.Duration(1 + d.Int63n(int64(p)))
		}
	}
	// Present the messages in a shuffled order: prepare sorts them.
	for i := len(msgs) - 1; i > 0; i-- {
		j := intn(d, i+1)
		msgs[i], msgs[j] = msgs[j], msgs[i]
	}
	return msgs, cfg
}

// evictingCache keeps its last capacity entries, so that hits and
// misses interleave along the priority order.
type evictingCache struct {
	capacity int
	keys     []contenthash.Digest
	m        map[contenthash.Digest]any
}

func newEvictingCache(capacity int) *evictingCache {
	return &evictingCache{capacity: capacity, m: map[contenthash.Digest]any{}}
}

func (c *evictingCache) Get(key contenthash.Digest) (any, bool) {
	v, ok := c.m[key]
	return v, ok
}

func (c *evictingCache) Put(key contenthash.Digest, v any) {
	if _, ok := c.m[key]; !ok {
		c.keys = append(c.keys, key)
	}
	c.m[key] = v
	for len(c.keys) > c.capacity {
		delete(c.m, c.keys[0])
		c.keys = c.keys[1:]
	}
}

// perturb returns a copy of msgs with one message's jitter raised, so a
// cache warmed on it holds the ranks above that message only.
func perturb(d drawer, msgs []Message) []Message {
	out := append([]Message(nil), msgs...)
	k := intn(d, len(out))
	if ev := out[k].Event; ev.Jitter < ev.Period/2 {
		out[k].Event.Jitter += ev.Period / 4
	} else {
		out[k].Deadline = 0
		out[k].Frame.DLC = (out[k].Frame.DLC + 1) % 9
	}
	return out
}

// checkMatchesOracle analyses one generated bus through every entry
// point and cache state and compares each whole report with the
// cold-start oracle's.
func checkMatchesOracle(t *testing.T, d drawer, msgs []Message, cfg Config) {
	t.Helper()
	want, wantErr := oracleAnalyze(msgs, cfg)
	check := func(name string, got *Report, err error) {
		t.Helper()
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%s: error %v, oracle error %v", name, err, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			for i := range want.Results {
				if !reflect.DeepEqual(got.Results[i], want.Results[i]) {
					t.Fatalf("%s: rank %d of %d (cfg %+v):\n got %+v\nwant %+v",
						name, i, len(want.Results), cfg, got.Results[i], want.Results[i])
				}
			}
			t.Fatalf("%s: report differs from the oracle's", name)
		}
	}
	got, err := Analyze(msgs, cfg)
	check("Analyze", got, err)
	for _, w := range []int{1, 4} {
		got, err = AnalyzeCached(msgs, cfg, nil, w)
		check("AnalyzeCached/nil", got, err)
	}
	if wantErr != nil {
		return
	}
	for _, w := range []int{1, 4} {
		cache := newMapCache()
		got, err = AnalyzeCached(msgs, cfg, cache, w)
		check("AnalyzeCached/empty", got, err)
		got, err = AnalyzeCached(msgs, cfg, cache, w)
		check("AnalyzeCached/warm", got, err)

		cache = newMapCache()
		if _, err := AnalyzeCached(perturb(d, msgs), cfg, cache, w); err == nil {
			got, err = AnalyzeCached(msgs, cfg, cache, w)
			check("AnalyzeCached/edited", got, err)
		}

		tiny := newEvictingCache(1 + intn(d, 4))
		for pass := 0; pass < 2; pass++ {
			got, err = AnalyzeCached(msgs, cfg, tiny, w)
			check("AnalyzeCached/evicting", got, err)
		}
	}
}

// The warm-started kernel must return reports bit-identical to the
// cold-start oracle over generated buses, through Analyze,
// AnalyzeCached without and with a cache alike.
func TestAnalyzeMatchesOracle(t *testing.T) {
	trials := 100
	if testing.Short() {
		trials = 30
	}
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < trials; trial++ {
		msgs, cfg := genBus(rng)
		checkMatchesOracle(t, rng, msgs, cfg)
	}
}

// Overloaded buses under the smallest horizons fail at a different rank
// on every draw; the warm kernel must fail exactly where the oracle does.
func TestAnalyzeMatchesOracleAtHorizonFailures(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 150; trial++ {
		msgs, cfg := genBus(rng)
		cfg.Horizon = time.Duration(1 + rng.Int63n(int64(3*ms)))
		checkMatchesOracle(t, rng, msgs, cfg)
	}
}

func FuzzAnalyzeMatchesOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x02\x01\x00\x00\x05\x40\x00\x7f\x33\x10\x08\x00\x01\x02\x03\x04\x05\x06\x07"))
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &byteDrawer{b: data}
		msgs, cfg := genBus(d)
		checkMatchesOracle(t, d, msgs, cfg)
	})
}

// resume's guard, at both of its boundaries: a warm fixpoint stands at
// exactly the horizon and exactly maxIterations smallest steps above the
// cold start, and one nanosecond past either is recomputed cold.
func TestWarmExactBoundaries(t *testing.T) {
	const cold, horizon = 100 * us, 10 * time.Second
	wire := 47 * 2 * us
	warmCap := maxIterations * wire
	for _, tc := range []struct {
		name  string
		x     time.Duration
		hz    time.Duration
		cap   time.Duration
		exact bool
	}{
		{"inside both", cold + wire, horizon, warmCap, true},
		{"at the horizon", horizon, horizon, horizon, true},
		{"past the horizon", horizon + 1, horizon, horizon + 1, false},
		{"at the step bound", cold + warmCap, cold + warmCap, warmCap, true},
		{"past the step bound", cold + warmCap + 1, cold + warmCap + 1, warmCap, false},
		{"no whole error costs", cold + 1, horizon, 0, false},
		{"cold itself", cold, horizon, 0, true},
	} {
		if got := warmExact(tc.x, cold, tc.hz, tc.cap); got != tc.exact {
			t.Errorf("%s: warmExact(%v) = %v, want %v", tc.name, tc.x, got, tc.exact)
		}
	}
}

// The guard's step bound is what keeps a warm start honest where the
// cold iteration runs out of steps. A back-to-back burst of N
// higher-priority frames makes both busy periods climb one frame per
// step to the same fixpoint (N+1)*C: rank 0 from 2C in N-1 steps, rank
// 1 from C in N. With N-1 == maxIterations the cold analysis converges
// at rank 0 and fails at rank 1; warm, rank 1 starts at the fixpoint,
// and only the guard (N*C > maxIterations*C) sends it back to the
// failing cold iteration.
func TestWarmGuardKeepsIterationCap(t *testing.T) {
	const n = maxIterations + 1
	p := 10_000 * time.Second
	hp := Message{Name: "hp", Frame: can.Frame{ID: 1},
		Event: eventmodel.Model{Period: p, Jitter: n*p - 10*time.Second}}
	lo := Message{Name: "lo", Frame: can.Frame{ID: 2}, Event: eventmodel.Periodic(p)}
	cfg := Config{Bus: can.Bus{Name: "fast", BitRate: can.Rate1M}, Horizon: time.Hour}
	hp.Event.DMin = cfg.Bus.FrameTime(hp.Frame, cfg.Stuffing)
	msgs := []Message{hp, lo}

	want, err := oracleAnalyze(msgs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want.Results[0].BusyPeriod != (n+1)*hp.Event.DMin || want.Results[1].BusyPeriod != Unschedulable {
		t.Fatalf("premise: oracle busy periods %v, %v; want %v and unschedulable",
			want.Results[0].BusyPeriod, want.Results[1].BusyPeriod, (n+1)*hp.Event.DMin)
	}
	got, err := Analyze(msgs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rank 1: got %+v\nwant %+v", got.Results[1], want.Results[1])
	}
}

// prepare's reflection-free sort must order exactly as the
// sort.SliceStable it replaced.
func TestPrepareOrderMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 200; trial++ {
		msgs, cfg := genBus(rng)
		p, err := prepare(msgs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := append([]Message(nil), msgs...)
		sort.SliceStable(want, func(i, j int) bool {
			return want[i].Frame.ID.HigherPriorityThan(want[j].Frame.ID, want[i].Frame.Format, want[j].Frame.Format)
		})
		if !reflect.DeepEqual(p.ordered, want) {
			t.Fatalf("trial %d: order differs", trial)
		}
	}
}
