package service

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/distrib"
	"repro/internal/scenario"
)

// startCampaign posts a small campaign and returns its id.
func startCampaign(t *testing.T, base, spec string) string {
	t.Helper()
	status, data := do(t, "POST", base+"/v1/campaigns?seeds=1&duration=50ms", spec)
	if status != http.StatusAccepted {
		t.Fatalf("create campaign: status %d: %s", status, data)
	}
	var started CampaignStarted
	if err := json.Unmarshal(data, &started); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return started.ID
}

// campaignReport polls until the campaign leaves "running", then
// fetches its plain-text report.
func campaignReport(t *testing.T, base, id string) string {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		status, data := do(t, "GET", base+"/v1/campaigns/"+id, "")
		if status != http.StatusOK {
			t.Fatalf("status: %d: %s", status, data)
		}
		var st CampaignStatus
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if st.State == "done" {
			break
		}
		if st.State != "running" {
			t.Fatalf("campaign %s ended %s: %s", id, st.State, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s still running after 30s", id)
		}
		time.Sleep(20 * time.Millisecond)
	}
	status, data := do(t, "GET", base+"/v1/campaigns/"+id+"/report", "")
	if status != http.StatusOK {
		t.Fatalf("report: status %d: %s", status, data)
	}
	return string(data)
}

// TestCampaignStream opens the SSE variant and checks the stream emits
// status events through to a terminal snapshot, with the SSE framing
// surviving the instrumentation and fallback wrappers.
func TestCampaignStream(t *testing.T) {
	_, base := newTestServer(t)
	id := startCampaign(t, base, "seed = 5\ncount = 4\n")

	req, err := http.NewRequest("GET", base+"/v1/campaigns/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}

	// The stream closes itself at the terminal state; read it whole.
	var events []string
	var last CampaignStatus
	sc := bufio.NewScanner(resp.Body)
	var event string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
			events = append(events, event)
		case strings.HasPrefix(line, "data: ") && event == "status":
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &last); err != nil {
				t.Fatalf("status payload: %v", err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("stream emitted no events")
	}
	if last.State != "done" || last.Summary == nil {
		t.Fatalf("final status: state %q summary %v", last.State, last.Summary)
	}
}

// TestDistributedCampaignOverService runs a campaign through a
// coordinator server fanning out to two worker servers and checks the
// rendered report is byte-identical to a plain local server's, and
// that the status carries shard bookkeeping and the SSE stream shard
// events.
func TestDistributedCampaignOverService(t *testing.T) {
	const spec = "seed = 9\ncount = 8\n"

	w1 := mustServer(t, Config{Workers: 1})
	hw1 := httptest.NewServer(w1.Handler())
	t.Cleanup(func() { hw1.Close(); w1.Close() })
	w2 := mustServer(t, Config{Workers: 1})
	hw2 := httptest.NewServer(w2.Handler())
	t.Cleanup(func() { hw2.Close(); w2.Close() })

	coord := mustServer(t, Config{
		Workers: 1, WorkerAddrs: []string{hw1.URL, hw2.URL}, ShardSize: 2,
	})
	hc := httptest.NewServer(coord.Handler())
	t.Cleanup(func() { hc.Close(); coord.Close() })

	_, baseLocal := newTestServer(t)

	id := startCampaign(t, hc.URL, spec)

	// Watch the distributed run over SSE to collect shard events.
	req, err := http.NewRequest("GET", hc.URL+"/v1/campaigns/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	defer resp.Body.Close()
	shardEvents := 0
	var last CampaignStatus
	sc := bufio.NewScanner(resp.Body)
	var event string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
			if event == "shard" {
				shardEvents++
			}
		case strings.HasPrefix(line, "data: ") && event == "status":
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &last); err != nil {
				t.Fatalf("status payload: %v", err)
			}
		}
	}
	if last.State != "done" {
		t.Fatalf("distributed campaign ended %q: %s", last.State, last.Error)
	}
	if last.Shards == nil || last.Shards.Total != 4 || last.Shards.Done != 4 {
		t.Fatalf("shard bookkeeping: %+v", last.Shards)
	}
	if shardEvents == 0 {
		t.Fatal("stream emitted no shard events")
	}

	distributed := campaignReport(t, hc.URL, id)
	serial := campaignReport(t, baseLocal, startCampaign(t, baseLocal, spec))
	if distributed != serial {
		t.Fatalf("distributed report differs from serial:\n--- distributed ---\n%s\n--- serial ---\n%s",
			distributed, serial)
	}
	if w1.worker.ShardsServed()+w2.worker.ShardsServed() != 4 {
		t.Fatalf("workers served %d+%d shards, want 4 total",
			w1.worker.ShardsServed(), w2.worker.ShardsServed())
	}

	// The coordinator's /metrics fold the same events as the status.
	body := scrape(t, hc.URL)
	done := sample(t, body, "symtago_shard_done_total")
	failed := sample(t, body, "symtago_shard_failed_total")
	inflight := sample(t, body, "symtago_shard_inflight")
	dispatched := sample(t, body, "symtago_shard_dispatch_total")
	if done != float64(last.Shards.Done) || dispatched != done+failed+inflight || inflight != 0 {
		t.Fatalf("shard metrics: %v dispatched, %v done, %v failed, %v in flight; status %+v",
			dispatched, done, failed, inflight, last.Shards)
	}
}

// TestCancelledCampaignSettlesInflight cancels a distributed campaign
// while both workers hold a shard: the job's stream carries both
// shard_abandoned events, and the coordinator's /metrics settle them,
// with nothing left in flight.
func TestCancelledCampaignSettlesInflight(t *testing.T) {
	held := make(chan struct{}, 2)
	hold := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		// With the body read, the server watches the connection and
		// cancels the request when the coordinator goes away.
		io.Copy(io.Discard, r.Body)
		held <- struct{}{}
		<-r.Context().Done()
	}))
	t.Cleanup(hold.Close)
	coord := mustServer(t, Config{Workers: 1, WorkerAddrs: []string{hold.URL, hold.URL}, ShardSize: 2})
	hc := httptest.NewServer(coord.Handler())
	t.Cleanup(func() { hc.Close(); coord.Close() })

	id := startCampaign(t, hc.URL, "seed = 9\ncount = 8\n")
	for i := 0; i < 2; i++ {
		select {
		case <-held:
		case <-time.After(time.Minute):
			t.Fatal("workers never received both shards")
		}
	}
	if status, data := do(t, "POST", hc.URL+"/v1/campaigns/"+id+"/cancel", ""); status != http.StatusAccepted {
		t.Fatalf("cancel: %d %s", status, data)
	}

	// The stream replays the job's events and ends at its final status.
	req, err := http.NewRequest("GET", hc.URL+"/v1/campaigns/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	abandoned := 0
	var last CampaignStatus
	var event string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "shard":
			var e distrib.Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e); err != nil {
				t.Fatal(err)
			}
			if e.Type == distrib.EventShardAbandoned {
				abandoned++
			}
		case strings.HasPrefix(line, "data: ") && event == "status":
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &last); err != nil {
				t.Fatal(err)
			}
		}
	}
	if last.State != "cancelled" || abandoned != 2 {
		t.Fatalf("stream ended %q with %d shard_abandoned events, want cancelled and 2", last.State, abandoned)
	}
	body := scrape(t, hc.URL)
	if inflight, dispatched, gaveUp := sample(t, body, "symtago_shard_inflight"),
		sample(t, body, "symtago_shard_dispatch_total"),
		sample(t, body, "symtago_shard_abandoned_total"); inflight != 0 || dispatched != 2 || gaveUp != 2 {
		t.Fatalf("shard metrics after cancel: %v in flight, %v dispatched, %v abandoned; want 0, 2, 2",
			inflight, dispatched, gaveUp)
	}
}

// TestShardMetricsAcrossJobs runs two distributed campaigns at once on
// one coordinator: the server-wide shard families fold both jobs'
// events, each job's status only its own.
func TestShardMetricsAcrossJobs(t *testing.T) {
	w := mustServer(t, Config{Workers: 1})
	hw := httptest.NewServer(w.Handler())
	t.Cleanup(func() { hw.Close(); w.Close() })
	coord := mustServer(t, Config{Workers: 1, WorkerAddrs: []string{hw.URL, hw.URL}, ShardSize: 2})
	hc := httptest.NewServer(coord.Handler())
	t.Cleanup(func() { hc.Close(); coord.Close() })

	ids := []string{startCampaign(t, hc.URL, "seed = 9\ncount = 4\n"), startCampaign(t, hc.URL, "seed = 10\ncount = 6\n")}
	scrape(t, hc.URL) // reads the fold while both jobs write it (for -race)
	shards := 0
	for _, id := range ids {
		campaignReport(t, hc.URL, id)
		_, data := do(t, "GET", hc.URL+"/v1/campaigns/"+id, "")
		var st CampaignStatus
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		if st.Shards == nil || st.Shards.Done != st.Shards.Total {
			t.Fatalf("campaign %s shards: %+v", id, st.Shards)
		}
		shards += st.Shards.Done
	}
	body := scrape(t, hc.URL)
	done := sample(t, body, "symtago_shard_done_total")
	dispatched := sample(t, body, "symtago_shard_dispatch_total")
	failed := sample(t, body, "symtago_shard_failed_total")
	if done != 5 || shards != 5 || dispatched != done+failed || sample(t, body, "symtago_shard_inflight") != 0 {
		t.Fatalf("shard metrics: %v dispatched, %v done, %v failed over jobs with %d shards done",
			dispatched, done, failed, shards)
	}
}

// TestShardEndpoint exercises POST /v1/shards directly: a valid
// request computes rows, a version-skewed one is rejected.
func TestShardEndpoint(t *testing.T) {
	_, base := newTestServer(t)

	ref, err := campaign.NewSpecRef(scenario.Spec{Seed: 21, Count: 3})
	if err != nil {
		t.Fatal(err)
	}
	reqBody, err := json.Marshal(distrib.ShardRequest{
		Version: distrib.WireVersion, Corpus: ref, Start: 0, Count: 3,
		Config: distrib.NewShardConfig(campaign.Config{
			Seeds: 1, Duration: 50 * time.Millisecond,
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	status, data := do(t, "POST", base+distrib.ShardPath, string(reqBody))
	if status != http.StatusOK {
		t.Fatalf("shard: status %d: %s", status, data)
	}
	var shardResp distrib.ShardResponse
	if err := json.Unmarshal(data, &shardResp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(shardResp.Rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(shardResp.Rows))
	}

	if status, data = do(t, "POST", base+distrib.ShardPath, `{"version":99}`); status != http.StatusBadRequest {
		t.Fatalf("version skew: status %d: %s", status, data)
	}
}

// TestMetricsHistory checks the per-tenant counters on /metrics that
// a scraper differences into history windows: a tenant's request is
// attributed to it.
func TestMetricsHistory(t *testing.T) {
	srv := mustServer(t, Config{Workers: 1})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })

	req, err := http.NewRequest("POST", hs.URL+"/v1/analyze", strings.NewReader(testSpec(t, 2)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(TenantHeader, "oem-a")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze: status %d", resp.StatusCode)
	}

	if n := sample(t, scrape(t, hs.URL), `symtago_tenant_requests_total{tenant="oem-a"}`); n != 1 {
		t.Fatalf("tenant oem-a requests = %v, want 1", n)
	}
}
