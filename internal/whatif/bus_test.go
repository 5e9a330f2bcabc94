package whatif

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/can"
	"repro/internal/kmatrix"
	"repro/internal/rta"
)

const (
	us = time.Microsecond
	ms = time.Millisecond
)

func testMatrix(n int) *kmatrix.KMatrix {
	return kmatrix.Powertrain(kmatrix.GenConfig{Seed: 1, Messages: n})
}

func worstCfg() rta.Config {
	return rta.Config{Stuffing: can.StuffingWorstCase, DeadlineModel: rta.DeadlineImplicit}
}

// fullAnalyze is the from-scratch comparator of a session state.
func fullAnalyze(t *testing.T, k *kmatrix.KMatrix, cfg rta.Config) *rta.Report {
	t.Helper()
	cfg.Bus = k.Bus()
	rep, err := rta.Analyze(k.ToRTA(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestBusSessionMatchesFromScratch(t *testing.T) {
	k := testMatrix(30)
	sess := NewBusSession(k, worstCfg(), Options{})

	// Base analysis.
	got, err := sess.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if want := fullAnalyze(t, k, worstCfg()); !reflect.DeepEqual(got, want) {
		t.Fatal("base session report differs from rta.Analyze")
	}

	// A batch of edits of every kind.
	name0 := k.Messages[0].Name
	name1 := k.Messages[1].Name
	changes := ChangeSet{
		SetJitter{Message: name0, Jitter: 750 * us},
		SetPeriod{Message: name1, Period: 15 * ms},
		SetDLC{Message: name1, DLC: 4},
		SetDeadline{Message: name0, Deadline: 8 * ms},
		ScaleJitter{Scale: 0.2, OnlyUnknown: true},
		AddMessage{Row: kmatrix.Message{
			Name: "LateAddition", ID: 0x7F0, DLC: 8, Period: 50 * ms, Sender: "ECU9",
		}},
		RemoveMessage{Message: k.Messages[2].Name},
	}
	if err := sess.Apply(changes...); err != nil {
		t.Fatal(err)
	}
	got, err = sess.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if want := fullAnalyze(t, sess.Matrix(), worstCfg()); !reflect.DeepEqual(got, want) {
		t.Fatal("edited session report differs from rta.Analyze of the edited matrix")
	}

	// Reset restores the base exactly.
	sess.Reset()
	got, err = sess.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if want := fullAnalyze(t, k, worstCfg()); !reflect.DeepEqual(got, want) {
		t.Fatal("reset session report differs from the base analysis")
	}
}

func TestBusSessionUnknownMessage(t *testing.T) {
	sess := NewBusSession(testMatrix(10), worstCfg(), Options{})
	if err := sess.Apply(SetJitter{Message: "nope", Jitter: us}); err == nil {
		t.Fatal("editing an unknown message must fail")
	}
}

func TestBusSessionMatrixIsACopy(t *testing.T) {
	k := testMatrix(10)
	sess := NewBusSession(k, worstCfg(), Options{})
	m := sess.Matrix()
	m.Messages[0].Jitter = 42 * ms
	m2 := sess.Matrix()
	if m2.Messages[0].Jitter == 42*ms {
		t.Fatal("Matrix() exposed session state")
	}
}

// TestBusSessionSharesAcrossSessions checks that two sessions over one
// store share per-message results.
func TestBusSessionSharesAcrossSessions(t *testing.T) {
	k := testMatrix(20)
	store := cache.NewLRU(0)
	s1 := NewBusSession(k, worstCfg(), Options{Store: store})
	if _, err := s1.Analyze(); err != nil {
		t.Fatal(err)
	}
	s2 := NewBusSession(k, worstCfg(), Options{Store: store})
	if _, err := s2.Analyze(); err != nil {
		t.Fatal(err)
	}
	st := s2.Stats()
	if st.ReportHits != 1 || st.Misses != 0 {
		t.Fatalf("second session: want 1 report hit and 0 misses, got %+v", st)
	}
}

func TestChangeStrings(t *testing.T) {
	for _, c := range []Change{
		SetJitter{Message: "M", Jitter: 200 * us},
		SetPeriod{Message: "M", Period: 10 * ms},
		SetID{Message: "M", ID: 0x123},
		SetDLC{Message: "M", DLC: 4},
		SetDeadline{Message: "M", Deadline: 5 * ms},
		ScaleJitter{Scale: 0.25},
		ScaleJitter{Scale: 0.25, OnlyUnknown: true},
		AddMessage{Row: kmatrix.Message{Name: "N", ID: 0x200, DLC: 8, Period: 10 * ms, Sender: "E"}},
		RemoveMessage{Message: "M"},
	} {
		if c.String() == "" {
			t.Errorf("%T renders empty", c)
		}
	}
}
