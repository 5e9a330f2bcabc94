package distrib

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/scenario"
)

// fuzzShard is the range FuzzShardResponse asks for: the middle of the
// 12-scenario test corpus, so an install can be told from its
// neighbours.
var fuzzShard = campaign.ShardRange{Start: 4, Count: 4}

// shardRequestBody encodes a request for r of the test corpus.
func shardRequestBody(tb testing.TB, r campaign.ShardRange) []byte {
	tb.Helper()
	ref, err := campaign.NewSpecRef(testSpec())
	if err != nil {
		tb.Fatal(err)
	}
	body, err := json.Marshal(ShardRequest{
		Version: WireVersion, Corpus: ref, Start: r.Start, Count: r.Count,
		Config: NewShardConfig(testConfig()),
	})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// answerFunc is a transport that answers every request itself.
type answerFunc func(*http.Request) *http.Response

func (f answerFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r), nil }

// gzipped compresses b.
func gzipped(tb testing.TB, b []byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if _, err := gz.Write(b); err != nil {
		tb.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzShardResponse answers one shard with arbitrary bytes, sent as
// gzip-encoded when gz is set. runShard must either install exactly
// the requested range or fail and leave the job untouched: a response
// is installed all or nothing, whatever a worker or the wire did to it.
func FuzzShardResponse(f *testing.F) {
	rec := httptest.NewRecorder()
	NewWorker(WorkerConfig{Workers: 1}).Handler().ServeHTTP(rec,
		httptest.NewRequest(http.MethodPost, ShardPath, bytes.NewReader(shardRequestBody(f, fuzzShard))))
	if rec.Code != http.StatusOK {
		f.Fatalf("worker: %d %s", rec.Code, rec.Body)
	}
	// testdata/fuzz holds these two and the torn, miscounted,
	// misindexed, bad-partial and version-skewed variants.
	valid := rec.Body.Bytes()
	f.Add(valid, false)
	f.Add(gzipped(f, valid), true)

	f.Fuzz(func(t *testing.T, body []byte, gz bool) {
		job, err := campaign.NewSpecJob(testSpec(), testConfig())
		if err != nil {
			t.Fatal(err)
		}
		ref, err := campaign.NewSpecRef(job.Spec())
		if err != nil {
			t.Fatal(err)
		}
		client := &http.Client{Transport: answerFunc(func(r *http.Request) *http.Response {
			h := http.Header{"Content-Type": {"application/json"}}
			if gz {
				h.Set("Content-Encoding", "gzip")
			}
			return &http.Response{StatusCode: http.StatusOK, Status: "200 OK", Header: h,
				Body: io.NopCloser(bytes.NewReader(body)), Request: r}
		})}
		c := &coordinator{job: job, ref: ref, cfg: NewShardConfig(job.Config()),
			opts: Options{Workers: []string{"http://worker"}, Client: client}.withDefaults()}
		pending := func() []campaign.ShardRange { return job.PendingRanges(campaign.MaxShardSize) }
		before := pending()
		done, total := job.Progress()

		_, err = c.runShard(context.Background(), "http://worker", &shardTask{r: fuzzShard})
		after, _ := job.Progress()
		if err != nil {
			if after != done || !reflect.DeepEqual(pending(), before) {
				t.Fatalf("failed response changed the job: %d -> %d scenarios done (%v)", done, after, err)
			}
			return
		}
		want := []campaign.ShardRange{
			{Start: 0, Count: fuzzShard.Start},
			{Start: fuzzShard.End(), Count: total - fuzzShard.End()},
		}
		if after != done+fuzzShard.Count || !reflect.DeepEqual(pending(), want) {
			t.Fatalf("installed response left %d scenarios done, pending %v; want %d, %v",
				after, pending(), done+fuzzShard.Count, want)
		}
	})
}

// FuzzShardRequest posts arbitrary bodies to the worker with a
// cancelled request context: decoding, the version, size and
// simulation checks and the range draw all run, and the shard stops
// before its first scenario. The worker answers 400 or 422, or 200
// with no body for the cancelled run — never a panic or a 5xx — and it
// draws only ranges whose spec stays within the generation limits.
func FuzzShardRequest(f *testing.F) {
	// testdata/fuzz also holds truncated JSON and a version skew.
	f.Add(shardRequestBody(f, fuzzShard))
	for _, text := range hostileSpecs {
		f.Add(hostileShard(f, text))
	}

	handler := NewWorker(WorkerConfig{Workers: 1}).Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		req := httptest.NewRequest(http.MethodPost, ShardPath, bytes.NewReader(body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusBadRequest, http.StatusUnprocessableEntity:
			return
		case http.StatusOK:
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		if rec.Body.Len() != 0 {
			t.Fatalf("cancelled shard answered 200 with %d body bytes", rec.Body.Len())
		}
		// The worker drew this range: its spec must sit within the limits.
		var sr ShardRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&sr); err != nil {
			t.Fatalf("worker drew a range from an undecodable request: %v", err)
		}
		spec, err := scenario.ParseSpec(strings.NewReader(sr.Corpus.Spec))
		if err != nil {
			t.Fatalf("worker drew a range from an unparsable spec: %v", err)
		}
		spec = spec.WithDefaults()
		if sr.Count > campaign.MaxShardSize || spec.MaxBuses > scenario.BusLimit ||
			spec.MaxMessages > scenario.MessageLimit || spec.FlowsMax > scenario.FlowLimit ||
			spec.MaxChanges > scenario.ChangeLimit || spec.GatewayPeriodMin < scenario.GatewayPeriodFloor {
			t.Fatalf("worker drew %d scenarios of an out-of-limits spec %+v", sr.Count, spec)
		}
	})
}
