package campaign

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckpointRestoreBitIdentical interrupts a job, round-trips it
// through the checkpoint wire format (as the service does across a
// SIGTERM restart), and checks the resumed run folds a report
// bit-identical to an uninterrupted one.
func TestCheckpointRestoreBitIdentical(t *testing.T) {
	spec := jobSpec()
	cfg := Config{Workers: 2, Seeds: 1, Duration: 50e6}
	want := oracle(t, spec, cfg)

	j, err := NewSpecJob(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for {
			if done, _ := j.Progress(); done >= 3 {
				cancel()
				return
			}
		}
	}()
	if _, err := j.Run(ctx); err != nil && err != context.Canceled {
		t.Fatalf("interrupted run: %v", err)
	}
	cancel()
	doneBefore, total := j.Progress()

	var buf bytes.Buffer
	if err := j.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}

	restored, err := RestoreJob(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if done, rtotal := restored.Progress(); done != doneBefore || rtotal != total {
		t.Fatalf("restored progress %d/%d, want %d/%d", done, rtotal, doneBefore, total)
	}
	got, err := restored.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	matchOracle(t, "checkpoint-resumed job", got, want)
}

// TestCheckpointOfFinishedJob round-trips a completed job: the restore
// has nothing pending and its Run folds the identical report.
func TestCheckpointOfFinishedJob(t *testing.T) {
	cfg := Config{Workers: 2, Seeds: 1, Duration: 50e6}
	j, err := NewSpecJob(jobSpec(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := j.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := j.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreJob(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if done, total := restored.Progress(); done != total {
		t.Fatalf("restored finished job reports %d/%d", done, total)
	}
	got, err := restored.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if canonical(t, got) != canonical(t, want) {
		t.Fatal("restored finished report differs")
	}
}

func TestRestoreRejectsCorruptCheckpoints(t *testing.T) {
	j, err := NewSpecJob(jobSpec(), Config{Workers: 1, Seeds: 1, Duration: 50e6})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := j.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.String()

	for name, mangle := range map[string]string{
		"bad-json":           "{not json",
		"bad-version":        strings.Replace(good, `"version":2`, `"version":99`, 1),
		"bad-corpus-version": strings.Replace(good, `"version":1`, `"version":77`, 1),
		"bad-fingerprint":    strings.Replace(good, `"fingerprint":"`, `"fingerprint":"00`, 1),
	} {
		if _, err := RestoreJob(strings.NewReader(mangle)); err == nil {
			t.Errorf("%s: restore accepted a corrupt checkpoint", name)
		}
	}
}

// TestRestorePreviousCheckpoints restores checkpoints written by the
// code that preceded the spec-only job — one by a materialized job
// interrupted mid-run (it records the corpus fingerprint), one by a
// streamed job fed two shards (it records none) — so a server drained
// by that binary restarts cleanly under this one. Both resume to the
// oracle's report, and the fingerprint of the first is verified.
func TestRestorePreviousCheckpoints(t *testing.T) {
	want := oracle(t, jobSpec(), Config{Seeds: 1, Duration: 50e6})
	for _, tc := range []struct {
		file string
		done int
	}{
		{"local-interrupted.json", 5},
		{"streamed-shards.json", 6},
	} {
		data, err := os.ReadFile(filepath.Join("testdata", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		j, err := RestoreJob(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		if done, total := j.Progress(); done != tc.done || total != 12 {
			t.Fatalf("%s: restored progress %d/%d, want %d/12", tc.file, done, total, tc.done)
		}
		got, err := j.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		matchOracle(t, tc.file, got, want)
	}

	data, err := os.ReadFile(filepath.Join("testdata", "local-interrupted.json"))
	if err != nil {
		t.Fatal(err)
	}
	// Change one digit of the recorded fingerprint.
	at := bytes.Index(data, []byte(`"fingerprint":"`)) + len(`"fingerprint":"`)
	if data[at] == '0' {
		data[at] = '1'
	} else {
		data[at] = '0'
	}
	if _, err := RestoreJob(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("restore of a checkpoint with a changed fingerprint: %v", err)
	}
}
