package sim

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// Seed-fan results must not depend on the worker count or schedule.
func TestRunSeedsDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	specs := randomSpecs(rng, 8)
	seeds := make([]int64, 24)
	for i := range seeds {
		seeds[i] = int64(i * 31)
	}
	cfg := Config{Bus: bus500k, Duration: 500 * time.Millisecond, Stuffing: StuffRandom}

	serial, err := RunSeeds(specs, cfg, seeds, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8, 0} {
		parallel, err := RunSeeds(specs, cfg, seeds, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("results differ between 1 and %d workers", workers)
		}
	}
}

// Each seed must actually drive its own RNG: different seeds under
// random stuffing should not all coincide.
func TestRunSeedsVaryWithSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	specs := randomSpecs(rng, 6)
	cfg := Config{Bus: bus500k, Duration: 500 * time.Millisecond, Stuffing: StuffRandom}
	results, err := RunSeeds(specs, cfg, []int64{1, 2, 3, 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	distinct := false
	for i := 1; i < len(results); i++ {
		if results[i].BusBusy != results[0].BusBusy {
			distinct = true
		}
	}
	if !distinct {
		t.Error("all seeds produced identical bus occupation under random stuffing")
	}
}

// An invalid run fails the fan; an empty fan succeeds.
func TestRunSeedsPropagatesErrors(t *testing.T) {
	cfg := Config{Bus: bus500k, Duration: 10 * ms}
	if _, err := RunSeeds(nil, cfg, []int64{1, 2, 3}, 0); err == nil {
		t.Fatal("expected error from invalid runs")
	}
	if res, err := RunSeeds([]MessageSpec{spec("A", 0x100, 8, ms, 0, "E1")}, cfg, nil, 0); err != nil || len(res) != 0 {
		t.Fatalf("empty fan: %d results, %v", len(res), err)
	}
}
