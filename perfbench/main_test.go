package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/campaign"
	"repro/internal/scenario"
	"repro/internal/service"
)

// benchmarkJSON is the checkout's BENCHMARK.json, read before TestMain
// leaves the package directory.
var benchmarkJSON []byte

// TestMain runs the tests from a scratch checkout root, because a run
// writes under ./.bench_build.
func TestMain(m *testing.M) {
	var err error
	if benchmarkJSON, err = os.ReadFile("../BENCHMARK.json"); err != nil {
		panic(err)
	}
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		panic(err)
	}
	if err := os.Chdir(dir); err != nil {
		panic(err)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestMetricsMatchBenchmarkJSON keeps the metrics the command prints
// and the ones BENCHMARK.json declares the same, in order and unit.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	var decl struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(benchmarkJSON, &decl); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the command, %d declared", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: command prints %s in %s, declared %s in %s",
					kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, decl.EndToEnd)
	same("per_layer", perLayer, decl.PerLayer)
	if len(decl.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(decl.Workloads), len(workloads))
	}
	for _, w := range decl.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("declared workload %q is not implemented", w.Name)
		}
	}
}

// TestEveryMetricPrints runs each workload on short inputs, untraced
// and traced, and checks the result line: exactly the four result keys,
// every metric by name with its unit, and passing output checks.
func TestEveryMetricPrints(t *testing.T) {
	for name := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace="+trace, func(t *testing.T) {
				var out bytes.Buffer
				ok, err := run([]string{"--workload", name, "--seed", "3", "--seconds", "1", "--trace", trace}, &out, true)
				if err != nil || !ok {
					t.Fatalf("run: ok=%v err=%v\n%s", ok, err, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct   *bool                      `json:"correct"`
					Attempted *int                       `json:"attempted"`
					Failed    *int                       `json:"failed"`
					Metrics   map[string]json.RawMessage `json:"metrics"`
				}
				var keys map[string]json.RawMessage
				last := []byte(lines[len(lines)-1])
				if err := json.Unmarshal(last, &keys); err != nil || len(keys) != 4 {
					t.Fatalf("last line is not a four-key object: %s", last)
				}
				if err := json.Unmarshal(last, &res); err != nil {
					t.Fatal(err)
				}
				if res.Correct == nil || !*res.Correct || res.Attempted == nil || *res.Attempted < 1 || res.Failed == nil {
					t.Fatalf("bad result fields: %s", last)
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					var v struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					}
					if err := json.Unmarshal(res.Metrics[d.name], &v); err != nil || v.Value == nil || v.Unit != d.unit {
						t.Errorf("metric %s: %s, want a value in %s", d.name, res.Metrics[d.name], d.unit)
						continue
					}
					if trace == "0" && *v.Value <= 0 {
						t.Errorf("end-to-end metric %s reads %v", d.name, *v.Value)
					}
				}
			})
		}
	}
}

// smallCorpus runs a short local campaign for the check tests.
func smallCorpus(t *testing.T) (scenario.Spec, *campaign.Report, string) {
	t.Helper()
	spec := scenario.Spec{Seed: 5, Count: 24}
	rep, _, _, err := localCampaign(context.Background(), spec, campaign.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fp, err := specFingerprint(spec)
	if err != nil {
		t.Fatal(err)
	}
	return spec, rep, fp
}

func TestCampaignCheckFiresOnDroppedRow(t *testing.T) {
	spec, rep, fp := smallCorpus(t)
	if err := checkCampaign(rep, spec.Count, fp); err != nil {
		t.Fatalf("intact report rejected: %v", err)
	}
	dropped := *rep
	dropped.Rows = append(append([]campaign.ScenarioResult(nil), rep.Rows[:7]...), rep.Rows[8:]...)
	if checkCampaign(&dropped, spec.Count, fp) == nil {
		t.Error("report with a dropped row passed")
	}
	other, err := specFingerprint(scenario.Spec{Seed: 6, Count: spec.Count})
	if err != nil {
		t.Fatal(err)
	}
	if checkCampaign(rep, spec.Count, other) == nil {
		t.Error("report under another corpus fingerprint passed")
	}
}

func TestRerunChecksFire(t *testing.T) {
	_, rep, _ := smallCorpus(t)
	if err := checkSharedRows(rep.Rows[:20], rep.Rows); err != nil {
		t.Fatalf("identical rows rejected: %v", err)
	}
	warm := append([]campaign.ScenarioResult(nil), rep.Rows...)
	warm[3].CacheMisses++
	if checkSharedRows(rep.Rows[:20], warm) == nil {
		t.Error("a changed shared row passed")
	}
	if checkSharedRows(rep.Rows, rep.Rows[:20]) == nil {
		t.Error("a rerun with dropped rows passed")
	}
	if checkNoMisses(cache.Stats{Hits: 10, Misses: 1}) == nil {
		t.Error("a rerun that missed the L2 passed")
	}
}

// TestRepetitionCheckFires feeds one batch pass the same report three
// times and then altered ones; the corpus counts once however often it
// repeats.
func TestRepetitionCheckFires(t *testing.T) {
	_, rep, _ := smallCorpus(t)
	rep.Rows[2].Violations++
	violating := 0
	for _, r := range rep.Rows {
		if r.Violations > 0 {
			violating++
		}
	}
	b := newBatchRun(false, nil)
	for i := 0; i < 3; i++ {
		if err := b.record(rep, time.Second, nil); err != nil {
			t.Fatalf("repetition %d rejected: %v", i, err)
		}
	}
	out := &outcome{}
	b.count(out)
	if out.attempted != len(rep.Rows) || out.failed != violating {
		t.Errorf("three repetitions count %d attempted, %d failed; want %d and %d",
			out.attempted, out.failed, len(rep.Rows), violating)
	}
	changed := *rep
	changed.Rows = append([]campaign.ScenarioResult(nil), rep.Rows...)
	changed.Rows[5].Frames++
	if b.record(&changed, time.Second, nil) == nil {
		t.Error("a repetition with a changed row passed")
	}
	dropped := *rep
	dropped.Rows = rep.Rows[:len(rep.Rows)-1]
	if b.record(&dropped, time.Second, nil) == nil {
		t.Error("a repetition with a dropped row passed")
	}
}

// TestSessionsCheckFiresOnFlippedByte replays sessions twice, flipping
// one byte of one response the second time.
func TestSessionsCheckFiresOnFlippedByte(t *testing.T) {
	plans, _, err := planSessions(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := serialReplay(4, plans)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := serialReplay(4, plans)
	if err != nil {
		t.Fatal(err)
	}
	if n := compareResponses(ref, got); n != 0 {
		t.Fatalf("identical replays differ in %d responses", n)
	}
	srv, err := service.New(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	do := handlerDoer(srv.Handler())
	calls := 0
	flip := func(method, path, body, tenant, traceID string) (int, []byte, error) {
		status, resp, err := do(method, path, body, tenant, traceID)
		if calls++; calls == 5 {
			resp = append([]byte(nil), resp...)
			resp[len(resp)/2] ^= 0x20
		}
		return status, resp, err
	}
	bad := make([][]response, len(plans))
	for i := range plans {
		if bad[i], err = runSession(flip, 4, &plans[i], "", func(int, time.Duration, []byte) {}); err != nil {
			t.Fatal(err)
		}
	}
	if n := compareResponses(ref, bad); n != 1 {
		t.Errorf("flipped byte counted as %d mismatches, want 1", n)
	}
	if n := compareResponses(ref, got[:1]); n != 0 {
		t.Errorf("a pass that ran fewer sessions counted %d mismatches", n)
	}
	cut := [][]response{got[0], got[1][:3]}
	if n := compareResponses(ref, cut); n != len(ref[1])-3 {
		t.Errorf("a truncated session counted as %d mismatches, want %d", n, len(ref[1])-3)
	}
}

// TestDistribCheckFiresOnTamperedShard folds a campaign whose workers
// alter a row of every shard they return.
func TestDistribCheckFiresOnTamperedShard(t *testing.T) {
	spec, local, _ := smallCorpus(t)
	want := reportText(local)
	honest, err := startFleet(nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, _, _, err := distribCampaign(context.Background(), spec, honest, nil)
	honest.stop()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReport(want, rep); err != nil {
		t.Fatalf("honest fold rejected: %v", err)
	}
	tampered, err := startFleet(func(_ int, h http.Handler) http.Handler { return tamper(t, h) })
	if err != nil {
		t.Fatal(err)
	}
	defer tampered.stop()
	rep, _, _, err = distribCampaign(context.Background(), spec, tampered, nil)
	if err != nil {
		t.Fatalf("tampered rows failed the fold itself: %v", err)
	}
	if checkReport(want, rep) == nil {
		t.Error("a fold over a tampered shard passed")
	}
}

// tamper rewrites the first row of every shard response: its frame
// count grows by one, everything else, the partial fingerprint
// included, stays intact.
func tamper(t *testing.T, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		gz := rec.Header().Get("Content-Encoding") == "gzip"
		if gz {
			zr, err := gzip.NewReader(bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			if body, err = io.ReadAll(zr); err != nil {
				t.Error(err)
				return
			}
		}
		var resp map[string]any
		if rec.Code == http.StatusOK && json.Unmarshal(body, &resp) == nil {
			if rows, ok := resp["rows"].([]any); ok && len(rows) > 0 {
				row := rows[0].(map[string]any)
				row["frames"] = row["frames"].(float64) + 1
				body, _ = json.Marshal(resp)
			}
		}
		if gz {
			var buf bytes.Buffer
			zw := gzip.NewWriter(&buf)
			zw.Write(body)
			zw.Close()
			body = buf.Bytes()
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	})
}
