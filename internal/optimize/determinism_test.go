package optimize

import (
	"reflect"
	"testing"

	"repro/internal/can"
	"repro/internal/kmatrix"
	"repro/internal/rta"
)

// TestRunWorkerInvariance pins the promise of Config.Workers: the
// seeded search is identical for every worker count (same trajectory,
// same front, same best candidate).
func TestRunWorkerInvariance(t *testing.T) {
	k := kmatrix.Powertrain(kmatrix.GenConfig{Seed: 5, Messages: 16})
	cfg := Config{
		Seed:        42,
		Population:  12,
		Archive:     6,
		Generations: 6,
		EvalScales:  []float64{0, 0.25},
		Analysis:    rta.Config{Stuffing: can.StuffingWorstCase},
		Workers:     1,
	}
	serial, err := Run(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	fanned, err := Run(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, fanned) {
		t.Fatal("GA run at 4 workers differs from the serial run")
	}
}

// TestAudsleyCachedEquivalence: the shared store must not change the
// assignment Audsley derives.
func TestAudsleyCachedEquivalence(t *testing.T) {
	k := kmatrix.Powertrain(kmatrix.GenConfig{Seed: 5, Messages: 14})
	cfg := rta.Config{Stuffing: can.StuffingWorstCase}
	a1, f1, err := Audsley(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A second run (fresh cache) must reproduce the first; and applying
	// the assignment must keep the matrix schedulable iff feasible.
	a2, f2, err := Audsley(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 || !reflect.DeepEqual(a1, a2) {
		t.Fatal("Audsley is not reproducible")
	}
	if f1 {
		cfg.Bus = k.Bus()
		rep, err := rta.Analyze(Apply(k, a1).ToRTA(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.AllSchedulable() {
			t.Fatal("feasible Audsley assignment does not verify")
		}
	}
}
