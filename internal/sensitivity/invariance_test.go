package sensitivity

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/can"
	"repro/internal/errormodel"
	"repro/internal/kmatrix"
	"repro/internal/rta"
)

func equivMatrix() *kmatrix.KMatrix {
	return kmatrix.Powertrain(kmatrix.GenConfig{Seed: 3, Messages: 26})
}

func equivConfig(workers int) SweepConfig {
	return SweepConfig{
		Analysis: rta.Config{Stuffing: can.StuffingWorstCase, DeadlineModel: rta.DeadlineImplicit},
		Workers:  workers,
	}
}

// TestSweepWorkerInvariance pins the promise of Sweep's doc comment:
// the whole result is identical for every worker count.
func TestSweepWorkerInvariance(t *testing.T) {
	k := equivMatrix()
	serial, err := Sweep(k, equivConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	fanned, err := Sweep(k, equivConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, fanned) {
		t.Fatal("sweep at 4 workers differs from the serial sweep")
	}
}

// TestToleranceTableWorkerInvariance pins the same promise for the
// tolerance table.
func TestToleranceTableWorkerInvariance(t *testing.T) {
	k := equivMatrix()
	serial, err := ToleranceTable(k, equivConfig(1), 0.1, 1.0, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	fanned, err := ToleranceTable(k, equivConfig(4), 0.1, 1.0, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, fanned) {
		t.Fatal("tolerance table at 4 workers differs from the serial table")
	}
}

// extensibilityOracle is the clone-based reference for Extensibility:
// every count n = 0..max is a fresh scaled clone with n additions put
// through a full analysis. Scanning linearly instead of bisecting also
// checks the monotonicity the bisection assumes: once a count breaks a
// deadline, every larger count must too.
func extensibilityOracle(t *testing.T, k *kmatrix.KMatrix, template kmatrix.Message, cfg SweepConfig,
	operatingScale float64, max int) int {
	t.Helper()
	analysis := cfg.Analysis
	analysis.Bus = k.Bus()
	var base can.ID
	for _, m := range k.Messages {
		if m.ID > base {
			base = m.ID
		}
	}
	base++
	fits := -1
	for n := 0; n <= max; n++ {
		trial := k.WithJitterScale(operatingScale, cfg.OnlyUnknown)
		for i := 0; i < n; i++ {
			add := template
			add.Name = fmt.Sprintf("%s_ext%03d", template.Name, i+1)
			add.ID = base + can.ID(i)
			add.Jitter = scaleDuration(operatingScale, add.Period)
			trial.Messages = append(trial.Messages, add)
		}
		rep, err := rta.Analyze(trial.ToRTA(), analysis)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.AllSchedulable() {
			continue
		}
		if fits != n-1 {
			t.Fatalf("schedulable with %d additions after failing with %d: not monotone", n, fits+1)
		}
		fits = n
	}
	return fits
}

// TestExtensibilityWhatIfEquivalence pins the incremental search to
// the clone oracle on the best-case and the worst-case analysis.
func TestExtensibilityWhatIfEquivalence(t *testing.T) {
	k := equivMatrix()
	template := kmatrix.Message{
		Name: "Ext", DLC: 8, Period: 20 * ms, Sender: "ECU1",
	}
	for _, tc := range []struct {
		name     string
		analysis rta.Config
	}{
		{"best", rta.Config{Stuffing: can.StuffingNominal, DeadlineModel: rta.DeadlineImplicit}},
		{"worst", rta.Config{
			Stuffing:      can.StuffingWorstCase,
			Errors:        errormodel.Burst{Interval: 10 * ms, Length: 3, Gap: 100 * time.Microsecond},
			DeadlineModel: rta.DeadlineImplicit,
		}},
	} {
		cfg := SweepConfig{Analysis: tc.analysis}
		got, err := Extensibility(k, template, cfg, 0.1, 64)
		if err != nil {
			t.Fatal(err)
		}
		want := extensibilityOracle(t, k, template, cfg, 0.1, 64)
		if got != want {
			t.Fatalf("%s: Extensibility = %d, clone oracle = %d", tc.name, got, want)
		}
	}
}
