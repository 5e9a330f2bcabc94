package campaign

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"repro/internal/scenario"
)

// testSpec describes a small deterministic corpus.
func testSpec(count int) scenario.Spec {
	return scenario.Spec{Count: count, Seed: 1}
}

// TestCampaignDeterministicAcrossWorkers pins the sharding contract:
// the whole report — rows, aggregates, CSV bytes, rendered text — is
// bit-identical at 1, 4 and 8 workers.
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	spec := testSpec(24)
	var ref *Report
	var refCSV []byte
	var refText string
	for _, workers := range []int{1, 4, 8} {
		rep, err := Run(spec, Config{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var csv bytes.Buffer
		if err := rep.WriteCSV(&csv); err != nil {
			t.Fatalf("workers=%d: csv: %v", workers, err)
		}
		text := rep.Render()
		if ref == nil {
			ref, refCSV, refText = rep, csv.Bytes(), text
			continue
		}
		// NaN margins (scenarios without traced paths) defeat
		// reflect.DeepEqual, so rows compare via their printed form. The
		// echoed Config.Workers is the one legitimate difference.
		if got, want := fmt.Sprintf("%+v", rep.Rows), fmt.Sprintf("%+v", ref.Rows); got != want {
			t.Fatalf("workers=%d: rows differ from workers=1", workers)
		}
		norm := *rep
		norm.Config.Workers = ref.Config.Workers
		if got, want := fmt.Sprintf("%+v", norm), fmt.Sprintf("%+v", *ref); got != want {
			t.Fatalf("workers=%d: report differs from workers=1", workers)
		}
		if !bytes.Equal(csv.Bytes(), refCSV) {
			t.Fatalf("workers=%d: CSV differs from workers=1", workers)
		}
		if text != refText {
			t.Fatalf("workers=%d: rendered report differs from workers=1", workers)
		}
	}
}

// TestCampaignCrossValidation checks the dominance property over a
// generated population: no observation beyond its bound, loss only
// where the analysis predicted it.
func TestCampaignCrossValidation(t *testing.T) {
	spec := testSpec(40)
	rep, err := Run(spec, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scenarios != 40 || len(rep.Rows) != 40 {
		t.Fatalf("expected 40 rows, got %d/%d", rep.Scenarios, len(rep.Rows))
	}
	if rep.Violations != 0 {
		t.Fatalf("%d observations exceeded compositional bounds", rep.Violations)
	}
	if !rep.LossOnlyPredicted {
		t.Fatal("gateway loss occurred without a predicted overflow/overwrite")
	}
	if rep.Converged == 0 || rep.Frames == 0 {
		t.Fatalf("implausible campaign: converged=%d frames=%d", rep.Converged, rep.Frames)
	}
	for i, row := range rep.Rows {
		if row.Index != i {
			t.Fatalf("row %d carries index %d", i, row.Index)
		}
		if row.Changes == 0 {
			t.Fatalf("row %d: no perturbation applied", i)
		}
		if row.CacheHits+row.CacheMisses == 0 {
			t.Fatalf("row %d: what-if session did no work", i)
		}
	}
}

// TestCampaignBatchGatewayScenarios pins the seed-1 scenarios whose
// paths cross a per-message-buffer gateway with Batch 2: the simulator
// must forward up to Batch occupied buffers per activation, as the
// gateway analysis assumes, so no path exceeds its bound. They come
// from `symtago campaign -n 600 -seed 1` and run at the default config.
func TestCampaignBatchGatewayScenarios(t *testing.T) {
	spec := scenario.Spec{Seed: 1, Count: 600}
	for _, index := range []int{536, 571, 578} {
		rows, _, err := RunRange(context.Background(), spec, index, 1, Config{})
		if err != nil {
			t.Fatal(err)
		}
		row := rows[0]
		if row.SimRuns == 0 {
			t.Fatalf("scenario %d: simulation did not run", row.Index)
		}
		if row.Violations != 0 {
			t.Errorf("scenario %d: %d observations exceeded their bounds (min path margin %.1f%%)",
				row.Index, row.Violations, row.MinMarginPct)
		}
	}
}

// TestCampaignAnalysisOnly disables the simulation stage.
func TestCampaignAnalysisOnly(t *testing.T) {
	spec := testSpec(8)
	rep, err := Run(spec, Config{Workers: 2, Seeds: -1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.SimRuns != 0 || rep.Frames != 0 {
		t.Fatalf("simulation ran despite Seeds<0: runs=%d frames=%d", rep.SimRuns, rep.Frames)
	}
	if rep.Converged == 0 {
		t.Fatal("no scenario converged")
	}
}

// TestCampaignEmptyCorpus rejects a spec that describes no population.
// A zero count selects the default size, so the nearest input is a
// negative count.
func TestCampaignEmptyCorpus(t *testing.T) {
	if _, err := Run(scenario.Spec{Count: -1}, Config{}); err == nil {
		t.Fatal("negative corpus count accepted")
	}
}
