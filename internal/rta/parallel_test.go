package rta

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/can"
	"repro/internal/errormodel"
	"repro/internal/eventmodel"
)

// randomMessages draws a valid random message set.
func randomMessages(rng *rand.Rand, n int) []Message {
	periods := []time.Duration{5, 10, 20, 50, 100}
	msgs := make([]Message, n)
	for i := range msgs {
		p := periods[rng.Intn(len(periods))] * time.Millisecond
		msgs[i] = Message{
			Name:  "m" + string(rune('A'+i/26)) + string(rune('a'+i%26)),
			Frame: can.Frame{ID: can.ID(0x80 + 4*i), Format: can.Standard11Bit, DLC: 1 + rng.Intn(8)},
			Event: eventmodel.PeriodicJitter(p, time.Duration(rng.Int63n(int64(p)/2))),
		}
	}
	return msgs
}

// AnalyzeCached without a cache (the parallel analysis) must reproduce
// Analyze exactly, for every worker count, including under error models
// and both deadline models.
func TestAnalyzeParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bus := can.Bus{Name: "t", BitRate: can.Rate500k}
	cfgs := []Config{
		{Bus: bus},
		{Bus: bus, Stuffing: can.StuffingNominal, DeadlineModel: DeadlineMinReArrival},
		{Bus: bus, Errors: errormodel.Burst{Interval: 10 * time.Millisecond, Length: 3, Gap: 100 * time.Microsecond}},
		{Bus: bus, ClassicSingleInstance: true},
	}
	for ci, cfg := range cfgs {
		for _, n := range []int{1, 7, 40} {
			msgs := randomMessages(rng, n)
			want, err := Analyze(msgs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{0, 1, 3, 16} {
				got, err := AnalyzeCached(msgs, cfg, nil, workers)
				if err != nil {
					t.Fatal(err)
				}
				if got.Utilization != want.Utilization {
					t.Fatalf("cfg %d n=%d workers=%d: utilization differs", ci, n, workers)
				}
				for i := range want.Results {
					if got.Results[i] != want.Results[i] {
						t.Fatalf("cfg %d n=%d workers=%d: result %d differs:\n par: %+v\n ser: %+v",
							ci, n, workers, i, got.Results[i], want.Results[i])
					}
				}
			}
		}
	}
}

// Invalid input must fail identically in both entry points.
func TestAnalyzeParallelValidation(t *testing.T) {
	bus := can.Bus{Name: "t", BitRate: can.Rate500k}
	dup := []Message{
		{Name: "a", Frame: can.Frame{ID: 1, DLC: 1}, Event: eventmodel.Periodic(time.Millisecond)},
		{Name: "b", Frame: can.Frame{ID: 1, DLC: 1}, Event: eventmodel.Periodic(time.Millisecond)},
	}
	if _, err := AnalyzeCached(dup, Config{Bus: bus}, nil, 0); err == nil {
		t.Error("duplicate identifiers must fail")
	}
	if _, err := AnalyzeCached(nil, Config{}, nil, 0); err == nil {
		t.Error("invalid bus must fail")
	}
}

// The memo must never change an analysis outcome: spot-check eta values
// against the direct computation across a wide window range.
func TestEtaMemoMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	msgs := randomMessages(rng, 12)
	memo := newEtaMemo(msgs)
	for trial := 0; trial < 5000; trial++ {
		k := rng.Intn(len(msgs))
		dt := time.Duration(rng.Int63n(int64(time.Second)))
		if got, want := memo.at(k, dt), msgs[k].Event.EtaPlus(dt); got != want {
			t.Fatalf("memo.at(%d, %v) = %d, want %d", k, dt, got, want)
		}
		// Re-query to exercise the hit path too.
		if got, want := memo.at(k, dt), msgs[k].Event.EtaPlus(dt); got != want {
			t.Fatalf("memo hit path at(%d, %v) = %d, want %d", k, dt, got, want)
		}
	}
}

// Extreme but valid models must not overflow the memo's window
// arithmetic: sub-microsecond periods driven to long horizons (huge
// eta), near-Unbounded periods and saturating jitters all have to match
// the saturating EtaPlus exactly.
func TestEtaMemoExtremeModels(t *testing.T) {
	msgs := []Message{
		{Name: "tiny", Event: eventmodel.Model{Period: time.Nanosecond}},
		{Name: "huge", Event: eventmodel.Model{Period: eventmodel.Unbounded/2 + 1}},
		{Name: "satjit", Event: eventmodel.Model{Period: time.Millisecond, Jitter: eventmodel.Unbounded - time.Millisecond, DMin: time.Microsecond}},
	}
	windows := []time.Duration{
		1, time.Microsecond, time.Second, 100 * time.Second,
		eventmodel.Unbounded / 4, eventmodel.Unbounded/4 + 1, eventmodel.Unbounded - 1,
	}
	memo := newEtaMemo(msgs)
	for k := range msgs {
		for _, dt := range windows {
			want := msgs[k].Event.EtaPlus(dt)
			if got := memo.at(k, dt); got != want {
				t.Errorf("%s: memo.at(%v) = %d, want %d", msgs[k].Name, dt, got, want)
			}
			if got := memo.at(k, dt); got != want { // hit path
				t.Errorf("%s: memo hit at(%v) = %d, want %d", msgs[k].Name, dt, got, want)
			}
		}
	}
}
