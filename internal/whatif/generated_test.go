package whatif_test

import (
	"reflect"
	"testing"

	"repro/internal/scenario"
	"repro/internal/whatif"
)

// TestSystemSessionMatchesCoreOnGeneratedScenarios is the session's
// differential oracle over inputs nobody hand-picked: the first 64
// scenarios of the default spec (the `campaign -quick` corpus) and the
// seed-1 scenarios 536, 571 and 578 of the 600-scenario spec, whose
// paths cross per-message-buffer gateways with Batch 2. Each scenario
// is analysed through a session, perturbed with its drawn changes and
// analysed again; both analyses must equal core.Analyze of a System
// rebuilt from the session, at 1 and 4 workers.
func TestSystemSessionMatchesCoreOnGeneratedScenarios(t *testing.T) {
	var scs []scenario.Scenario
	for index := 0; index < 64; index++ {
		sc, err := scenario.GenerateOne(scenario.Spec{Seed: 1}, index)
		if err != nil {
			t.Fatal(err)
		}
		scs = append(scs, *sc)
	}
	for _, index := range []int{536, 571, 578} {
		sc, err := scenario.GenerateOne(scenario.Spec{Seed: 1, Count: 600}, index)
		if err != nil {
			t.Fatal(err)
		}
		scs = append(scs, *sc)
	}
	for _, workers := range []int{1, 4} {
		for i := range scs {
			sc := &scs[i]
			sys, changes, err := sc.Build()
			if err != nil {
				t.Fatalf("scenario %d: %v", sc.Index, err)
			}
			sess := whatif.NewSystemSession(sys, whatif.Options{Workers: workers})
			assertMatchesCore(t, sess, sc.Index, workers, "base")
			if err := sess.Apply(changes...); err != nil {
				t.Fatalf("scenario %d: %v", sc.Index, err)
			}
			assertMatchesCore(t, sess, sc.Index, workers, "perturbed")
		}
	}
}

func assertMatchesCore(t *testing.T, sess *whatif.SystemSession, index, workers int, stage string) {
	t.Helper()
	got, err := sess.Analyze(0)
	if err != nil {
		t.Fatalf("scenario %d %s, %d workers: session: %v", index, stage, workers, err)
	}
	fresh, err := sess.System()
	if err != nil {
		t.Fatalf("scenario %d %s: %v", index, stage, err)
	}
	want, err := fresh.Analyze(0)
	if err != nil {
		t.Fatalf("scenario %d %s: core: %v", index, stage, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scenario %d %s, %d workers: session analysis differs from core.Analyze", index, stage, workers)
	}
}
