package distrib

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/campaign"
	"repro/internal/scenario"
)

// TestDistribStreamedMatchesLocal: a distributed run — the coordinator
// never materializes the corpus — folds the byte-identical report of a
// local run, and the corpus's own fingerprint, with compressed rows on
// the wire.
func TestDistribStreamedMatchesLocal(t *testing.T) {
	spec := testSpec()
	cfg := testConfig()
	corpus, err := scenario.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := campaign.Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	urls := startWorkers(t, 3, WorkerConfig{Workers: 1})

	job, err := campaign.NewSpecJob(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wireBytes atomic.Int64
	got, stats, err := RunStats(context.Background(), job, Options{
		Workers: urls, ShardSize: 2,
		OnEvent: func(e Event) {
			if e.Type == EventShardDone {
				wireBytes.Add(e.Bytes)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if canonical(t, got) != canonical(t, want) {
		t.Fatal("distributed report differs from local run")
	}
	if got.Fingerprint != corpus.Fingerprint().String() {
		t.Fatalf("folded fingerprint %s != corpus %s", got.Fingerprint, corpus.Fingerprint())
	}
	if stats.Shards != 6 || stats.BytesOnWire == 0 {
		t.Fatalf("stats %+v, want 6 shards and nonzero wire bytes", stats)
	}
	if wireBytes.Load() != stats.BytesOnWire {
		t.Fatalf("event bytes %d != stats bytes %d", wireBytes.Load(), stats.BytesOnWire)
	}
}

// TestDistribStreamedSurvivesWorkerKill: the victim fails every shard
// after its first, racing an ungated survivor; the report is still
// byte-identical.
func TestDistribStreamedSurvivesWorkerKill(t *testing.T) {
	spec := testSpec()
	cfg := testConfig()
	want, err := campaign.Run(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}

	victim := &killableWorker{h: NewWorker(WorkerConfig{Workers: 1}).Handler()}
	srvVictim := httptest.NewServer(victim)
	defer srvVictim.Close()
	srvSurvivor := httptest.NewServer(NewWorker(WorkerConfig{Workers: 1}).Handler())
	defer srvSurvivor.Close()

	job, err := campaign.NewSpecJob(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := RunStats(context.Background(), job, Options{
		Workers:   []string{srvVictim.URL, srvSurvivor.URL},
		ShardSize: 2, DropAfter: 1,
		OnEvent: func(e Event) {
			if e.Type == EventShardDone && e.Worker == srvVictim.URL {
				victim.killed.Store(true)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if canonical(t, got) != canonical(t, want) {
		t.Fatal("streamed report after worker kill differs from local run")
	}
}

// tamperingWorker serves shards from a real worker but corrupts the
// partial fingerprint of the shard that starts at scenario 0, as a
// drifted generator or a corrupted wire would.
func tamperingWorker() http.Handler {
	inner := NewWorker(WorkerConfig{Workers: 1}).Handler()
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		r.Header.Del("Accept-Encoding")
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		var sr ShardResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
			http.Error(rw, err.Error(), http.StatusBadGateway)
			return
		}
		if len(sr.Rows) > 0 && sr.Rows[0].Index == 0 {
			p, err := scenario.ParsePartial(sr.Partial)
			if err != nil {
				http.Error(rw, err.Error(), http.StatusBadGateway)
				return
			}
			p.A++
			sr.Partial = p.String()
		}
		rw.Header().Set("Content-Type", "application/json")
		json.NewEncoder(rw).Encode(&sr)
	})
}

// TestDistribPinnedFingerprintRejectsTamper: a tampered shard fails a
// distributed run whose job pins the corpus fingerprint, as
// `symtago campaign -corpus` and checkpoint restores do.
func TestDistribPinnedFingerprintRejectsTamper(t *testing.T) {
	spec := testSpec()
	corpus, err := scenario.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewServer(tamperingWorker())
	defer w.Close()

	job, err := campaign.NewSpecJob(spec, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	job.SetExpectedFingerprint(corpus.Fingerprint().String())
	_, _, err = RunStats(context.Background(), job, Options{Workers: []string{w.URL}, ShardSize: 4})
	if err == nil || !strings.Contains(err.Error(), "tampered") {
		t.Fatalf("pinned distributed run accepted a tampered shard: %v", err)
	}
}

// TestDistribRowCompression: shard responses travel gzip-compressed
// when asked (and measurably smaller than the identity encoding), and
// uncompressed for requesters that do not advertise gzip — the
// old-coordinator compatibility path.
func TestDistribRowCompression(t *testing.T) {
	spec := scenario.Spec{Seed: 11, Count: 12}
	cfg := testConfig()
	w := httptest.NewServer(NewWorker(WorkerConfig{Workers: 1}).Handler())
	defer w.Close()

	ref, err := campaign.NewSpecRef(spec)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(ShardRequest{
		Version: WireVersion, Corpus: ref, Start: 0, Count: 12,
		Config: NewShardConfig(cfg),
	})
	if err != nil {
		t.Fatal(err)
	}

	post := func(encoding string) (int, ShardResponse) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, w.URL+ShardPath, strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		// Setting the header explicitly disables the transport's
		// transparent decompression, so we see the true wire form.
		req.Header.Set("Accept-Encoding", encoding)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("Accept-Encoding %q: %s: %s", encoding, resp.Status, raw)
		}
		var payload io.Reader = strings.NewReader(string(raw))
		if resp.Header.Get("Content-Encoding") == "gzip" {
			if encoding != "gzip" {
				t.Fatalf("gzip response to Accept-Encoding %q", encoding)
			}
			payload = mustGunzip(t, raw)
		} else if encoding == "gzip" {
			t.Fatal("identity response to a gzip-accepting request")
		}
		var sr ShardResponse
		if err := json.NewDecoder(payload).Decode(&sr); err != nil {
			t.Fatal(err)
		}
		return len(raw), sr
	}

	plainLen, plain := post("identity")
	gzLen, gz := post("gzip")
	if gzLen >= plainLen {
		t.Fatalf("compressed response (%d B) not smaller than identity (%d B)", gzLen, plainLen)
	}
	if len(plain.Rows) != 12 || len(gz.Rows) != 12 {
		t.Fatalf("row counts %d/%d, want 12", len(plain.Rows), len(gz.Rows))
	}
	if plain.Partial != gz.Partial || plain.Partial == "" {
		t.Fatalf("partials differ across encodings: %q vs %q", plain.Partial, gz.Partial)
	}
}

// mustGunzip decompresses raw or fails the test.
func mustGunzip(t *testing.T, raw []byte) io.Reader {
	t.Helper()
	gz, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return gz
}
