package whatif

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/can"
	"repro/internal/eventmodel"
	"repro/internal/gateway"
	"repro/internal/kmatrix"
	"repro/internal/rta"
)

// randomChange draws one change applicable to the current matrix. Fresh
// identifiers for add/set-id come from a reserved pool so that edits
// never make the matrix invalid (invalid-input parity is covered by
// dedicated tests).
func randomChange(rng *rand.Rand, sess *BusSession, freshID *can.ID, added *int) Change {
	k := sess.Matrix()
	row := k.Messages[rng.Intn(len(k.Messages))]
	nextID := func() can.ID {
		*freshID++
		return *freshID
	}
	switch rng.Intn(9) {
	case 0:
		return SetJitter{Message: row.Name, Jitter: time.Duration(rng.Int63n(int64(row.Period)/2 + 1))}
	case 1:
		return SetPeriod{Message: row.Name, Period: time.Duration(5+rng.Intn(96)) * time.Millisecond}
	case 2:
		return SetID{Message: row.Name, ID: nextID()}
	case 3:
		return SetDLC{Message: row.Name, DLC: 1 + rng.Intn(8)}
	case 4:
		return SetDeadline{Message: row.Name, Deadline: time.Duration(rng.Intn(2)) * row.Period}
	case 5:
		return ScaleJitter{Scale: 0.05 * float64(rng.Intn(13)), OnlyUnknown: rng.Intn(2) == 0}
	case 6:
		*added++
		return AddMessage{Row: kmatrix.Message{
			Name:   fmt.Sprintf("added%04d", *added),
			ID:     nextID(),
			DLC:    1 + rng.Intn(8),
			Period: time.Duration(10+rng.Intn(91)) * time.Millisecond,
			Jitter: time.Duration(rng.Intn(5)) * time.Millisecond,
			Sender: "propECU",
		}}
	case 7:
		if len(k.Messages) <= 2 {
			return SetJitter{Message: row.Name, Jitter: 0}
		}
		return RemoveMessage{Message: row.Name}
	default:
		// Revert one row to its original jitter (or zero for additions):
		// the classic "supplier withdraws the revision" move.
		return SetJitter{Message: row.Name, Jitter: row.Jitter / 2}
	}
}

// TestPropertyRandomChangeSequences is the determinism contract of the
// engine: random sequences of 1-50 ChangeSets — including add/remove
// and revert-to-original — yield reports bit-identical to a full
// re-analysis of the edited matrix, at 1, 4 and 8 workers, with shared
// and with tiny (eviction-heavy) stores.
func TestPropertyRandomChangeSequences(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			size := 12 + rng.Intn(20)
			base := testMatrix(size)
			cfg := worstCfg()
			if seed%2 == 0 {
				cfg = rta.Config{} // best-case flavour
			}

			// Three sessions under test, one per worker count, plus one
			// under a tiny LRU budget; all must agree with from-scratch.
			sessions := map[string]*BusSession{
				"w1":   NewBusSession(base, cfg, Options{Workers: 1}),
				"w4":   NewBusSession(base, cfg, Options{Workers: 4}),
				"w8":   NewBusSession(base, cfg, Options{Workers: 8}),
				"tiny": NewBusSession(base, cfg, Options{Workers: 4, Store: cache.NewLRU(8)}),
			}

			freshID := can.ID(0x600)
			added := 0
			ref := sessions["w1"]
			steps := 1 + rng.Intn(50)
			for step := 0; step < steps; step++ {
				var cs ChangeSet
				if rng.Intn(8) == 0 {
					// Full revert-to-original.
					for _, s := range sessions {
						s.Reset()
					}
				} else {
					for n := 1 + rng.Intn(3); n > 0; n-- {
						cs = append(cs, randomChange(rng, ref, &freshID, &added))
					}
				}
				want := (*rta.Report)(nil)
				for name, s := range sessions {
					if err := s.Apply(cs...); err != nil {
						t.Fatalf("step %d session %s: %v (changes %v)", step, name, err, cs)
					}
					got, err := s.Analyze()
					if err != nil {
						t.Fatalf("step %d session %s: %v", step, name, err)
					}
					if want == nil {
						want = fullAnalyze(t, s.Matrix(), cfg)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d session %s: incremental report differs from full re-analysis (changes %v)",
							step, name, cs)
					}
				}
			}
		})
	}
}

// TestPropertySystemRandomEdits runs randomized edit sequences against
// the system session, comparing with a freshly rebuilt core.Analyze.
func TestPropertySystemRandomEdits(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sess := NewSystemSession(fullSystem(t), Options{Workers: 1 + int(seed)%3*3})
		for step := 0; step < 12; step++ {
			var edit SystemChange
			switch rng.Intn(6) {
			case 0:
				edit = SetEventJitter{Resource: "busA", Element: "noiseA",
					Jitter: time.Duration(rng.Intn(5000)) * time.Microsecond}
			case 1:
				edit = SetEventJitter{Resource: "ECU1", Element: "sensor",
					Jitter: time.Duration(rng.Intn(2000)) * time.Microsecond}
			case 2:
				edit = SetFrameDLC{Resource: "busB", Message: "noiseB", DLC: 1 + rng.Intn(8)}
			case 3:
				edit = RetuneGateway{Resource: "gw", Config: gatewayConfigVariant(rng)}
			case 4:
				edit = SetTDMASlot{Resource: "backbone", Owner: "other",
					Length: time.Duration(1+rng.Intn(3)) * time.Millisecond}
			default:
				edit = SetEventPeriod{Resource: "busB", Element: "noiseB",
					Period: time.Duration(10+rng.Intn(40)) * time.Millisecond}
			}
			if err := sess.Apply(edit); err != nil {
				t.Fatalf("seed %d step %d (%s): %v", seed, step, edit, err)
			}
			got, err := sess.Analyze(0)
			if err != nil {
				t.Fatalf("seed %d step %d (%s): %v", seed, step, edit, err)
			}
			if want := analyzeFresh(t, sess, 0); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d (%s): incremental differs from core.Analyze", seed, step, edit)
			}
		}
	}
}

func gatewayConfigVariant(rng *rand.Rand) gateway.Config {
	return gateway.Config{
		Service:    eventmodel.Periodic(time.Duration(1+rng.Intn(4)) * time.Millisecond),
		Batch:      1 + rng.Intn(2),
		Policy:     gateway.Policy(rng.Intn(2)),
		QueueDepth: rng.Intn(8),
	}
}
