package campaign

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/obs"
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

// TestTracedScenarioCacheSpans pins one cache accountant on the batch
// path: in a traced Job.Run every scenario's cache.l1 span reads its
// row's CacheHits and CacheMisses, and a cache.l2 span — splitting
// those misses into the ones the shared level answered and the rest —
// appears exactly when Config.Cache is set.
func TestTracedScenarioCacheSpans(t *testing.T) {
	spec := testSpec(12)
	disk, err := cache.NewDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(disk.Close)
	for _, tc := range []struct {
		name  string
		cache cache.Store
	}{{"spec", nil}, {"disk-cold", disk}, {"disk-warm", disk}} {
		t.Run(tc.name, func(t *testing.T) {
			j, err := NewSpecJob(spec, Config{Workers: 2, Seeds: 1, Duration: 20 * time.Millisecond, Cache: tc.cache})
			if err != nil {
				t.Fatal(err)
			}
			tr := obs.NewTrace(obs.ID{}, 0)
			rep, err := j.Run(obs.ContextWithTrace(context.Background(), tr))
			if err != nil {
				t.Fatal(err)
			}
			attrs := func(s obs.Span) map[string]string {
				m := map[string]string{}
				for _, a := range s.Attrs {
					m[a.Key] = a.Value
				}
				return m
			}
			rowOf := map[uint64]ScenarioResult{} // scenario span ID -> row
			for _, s := range tr.Spans() {
				if s.Name == "scenario" {
					i, err := strconv.Atoi(attrs(s)["index"])
					if err != nil {
						t.Fatalf("scenario span without index: %v", s.Attrs)
					}
					rowOf[s.ID] = rep.Rows[i]
				}
			}
			if len(rowOf) != spec.Count {
				t.Fatalf("%d scenario spans, want %d", len(rowOf), spec.Count)
			}
			l1, l2 := map[uint64]int{}, map[uint64]int{}
			var sharedHits uint64
			for _, s := range tr.Spans() {
				row, ok := rowOf[s.Parent]
				a := attrs(s)
				switch {
				case s.Name != "cache.l1" && s.Name != "cache.l2":
					continue
				case !ok:
					t.Fatalf("%s span outside a scenario", s.Name)
				case s.Name == "cache.l1":
					l1[s.Parent]++
					if a["hits"] != fmt.Sprint(row.CacheHits) || a["misses"] != fmt.Sprint(row.CacheMisses) {
						t.Errorf("scenario %d: cache.l1 %v, row hits %d misses %d",
							row.Index, a, row.CacheHits, row.CacheMisses)
					}
				default:
					l2[s.Parent]++
					hits, _ := strconv.ParseUint(a["hits"], 10, 64)
					misses, _ := strconv.ParseUint(a["misses"], 10, 64)
					if hits+misses != row.CacheMisses {
						t.Errorf("scenario %d: cache.l2 %v does not split the row's %d misses",
							row.Index, a, row.CacheMisses)
					}
					sharedHits += hits
				}
			}
			for id, row := range rowOf {
				wantL2 := 0
				if tc.cache != nil {
					wantL2 = 1
				}
				if l1[id] != 1 || l2[id] != wantL2 {
					t.Errorf("scenario %d: %d cache.l1 and %d cache.l2 spans, want 1 and %d",
						row.Index, l1[id], l2[id], wantL2)
				}
			}
			if tc.name == "disk-warm" && sharedHits == 0 {
				t.Error("warm run over the disk level recorded no cache.l2 hits")
			}
		})
	}
}
