package campaign

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/scenario"
)

func specJobConfig() Config {
	return Config{Workers: 2, Seeds: 1, Duration: 50e6}
}

// TestSpecJobMatchesOracle: a job run locally produces the oracle's
// report — same fingerprint, same rendered bytes — at any pool size.
func TestSpecJobMatchesOracle(t *testing.T) {
	spec := scenario.Spec{Seed: 21, Count: 10}
	want := oracle(t, spec, specJobConfig())
	for _, workers := range []int{1, 4} {
		j, err := NewSpecJob(spec, Config{Workers: workers, Seeds: 1, Duration: 50e6})
		if err != nil {
			t.Fatal(err)
		}
		got, err := j.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		matchOracle(t, "spec job", got, want)
	}
}

// shardRows computes a shard exactly the way a worker does: run the
// range, folding its partial.
func shardRows(t *testing.T, spec scenario.Spec, cfg Config, start, count int) ([]ScenarioResult, scenario.Partial) {
	t.Helper()
	rows, partial, err := RunRange(context.Background(), spec, start, count, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rows, partial
}

// TestSpecJobInstallShards: a job fed entirely by worker-style shards
// folds the oracle's report, and duplicate shard installs (retries
// that lost the race) change nothing.
func TestSpecJobInstallShards(t *testing.T) {
	spec := scenario.Spec{Seed: 21, Count: 10}
	cfg := specJobConfig()
	want := oracle(t, spec, cfg)

	sj, err := NewSpecJob(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sj.PendingRanges(3) {
		rows, partial := shardRows(t, spec, cfg, r.Start, r.Count)
		if err := sj.InstallShard(rows, partial); err != nil {
			t.Fatal(err)
		}
		// A duplicate install must be ignored whole — fold included.
		if err := sj.InstallShard(rows, partial); err != nil {
			t.Fatal(err)
		}
	}
	got, err := sj.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	matchOracle(t, "shard-fed job", got, want)
}

// TestInstallShardTamperRejected: a shard whose partial fingerprint
// does not describe the true corpus slice fails the final fold of a
// job with a pinned expected fingerprint.
func TestInstallShardTamperRejected(t *testing.T) {
	spec := scenario.Spec{Seed: 21, Count: 6}
	cfg := specJobConfig()
	corpus, err := scenario.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}

	sj, err := NewSpecJob(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sj.SetExpectedFingerprint(corpus.Fingerprint().String())
	for i, r := range sj.PendingRanges(3) {
		rows, partial := shardRows(t, spec, cfg, r.Start, r.Count)
		if i == 0 {
			partial.A++ // a drifted generator or corrupted wire
		}
		if err := sj.InstallShard(rows, partial); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sj.Run(context.Background()); err == nil || !strings.Contains(err.Error(), "tampered") {
		t.Fatalf("pinned job accepted tampered shard: %v", err)
	}

	// A partial whose count does not cover its rows is refused at
	// install time.
	j, err := NewSpecJob(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows, partial := shardRows(t, spec, cfg, 0, 3)
	partial.N--
	if err := j.InstallShard(rows, partial); err == nil {
		t.Fatal("InstallShard accepted a partial covering the wrong row count")
	}
}

// TestSpecJobCheckpointRestore: a job fed shards checkpoints without
// materializing its corpus, records the corpus fingerprint, restores
// with its installed rows, and finishes to the oracle's report.
func TestSpecJobCheckpointRestore(t *testing.T) {
	spec := scenario.Spec{Seed: 21, Count: 10}
	cfg := specJobConfig()
	want := oracle(t, spec, cfg)

	sj, err := NewSpecJob(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows, partial := shardRows(t, spec, cfg, 0, 4)
	if err := sj.InstallShard(rows, partial); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sj.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"fingerprint":"`+want.Fingerprint+`"`) {
		t.Fatal("checkpoint does not record the corpus fingerprint")
	}
	restored, err := RestoreJob(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if done, total := restored.Progress(); done != 4 || total != 10 {
		t.Fatalf("restored progress %d/%d, want 4/10", done, total)
	}
	got, err := restored.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	matchOracle(t, "restored job", got, want)
}
