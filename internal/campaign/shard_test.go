package campaign

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/scenario"
)

// TestRunShardFoldsIdentical rebuilds a campaign from shards the way a
// distributed run folds it: the corpus travels as a spec reference,
// each shard is checked and run the way a worker does (Range, then
// RunRange, through the WireRow transport encoding), shards install in
// reverse dispatch order, and the folded report must be the oracle's.
// A duplicate install (a retried shard that completed twice) is
// ignored, not double-counted, and a range outside the corpus is
// refused before anything is allocated.
func TestRunShardFoldsIdentical(t *testing.T) {
	spec := jobSpec()
	cfg := Config{Workers: 2, Seeds: 1, Duration: 50e6}
	want := oracle(t, spec, cfg)
	ref, err := NewSpecRef(spec)
	if err != nil {
		t.Fatal(err)
	}
	runShard := func(r ShardRange) ([]ScenarioResult, scenario.Partial) {
		t.Helper()
		rspec, err := ref.Range(r.Start, r.Count)
		if err != nil {
			t.Fatal(err)
		}
		rows, partial, err := RunRange(context.Background(), rspec, r.Start, r.Count, cfg)
		if err != nil {
			t.Fatal(err)
		}
		wired := make([]ScenarioResult, len(rows))
		for k := range rows {
			w := NewWireRow(&rows[k])
			if wired[k], err = w.Result(); err != nil {
				t.Fatal(err)
			}
		}
		return wired, partial
	}

	j, err := NewSpecJob(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ranges := j.PendingRanges(5)
	total := 0
	for _, r := range ranges {
		total += r.Count
	}
	if total != j.Total() || len(ranges) != 3 {
		t.Fatalf("pending ranges %v do not cover a fresh job of %d", ranges, j.Total())
	}
	for i := len(ranges) - 1; i >= 0; i-- {
		if err := j.InstallShard(runShard(ranges[i])); err != nil {
			t.Fatal(err)
		}
	}
	if rs := j.PendingRanges(5); len(rs) != 0 {
		t.Fatalf("ranges still pending after all shards installed: %v", rs)
	}
	got, err := j.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	matchOracle(t, "shard-folded job", got, want)

	if err := j.InstallShard(runShard(ranges[0])); err != nil {
		t.Fatal(err)
	}
	if done, tot := j.Progress(); done != tot {
		t.Fatalf("duplicate install corrupted progress: %d/%d", done, tot)
	}
	for _, r := range []ShardRange{{total - 2, 5}, {math.MaxInt, 1}, {1, math.MaxInt}} {
		if _, err := ref.Range(r.Start, r.Count); err == nil {
			t.Fatalf("out-of-range shard %+v accepted", r)
		}
		if _, _, err := RunRange(context.Background(), spec, r.Start, r.Count, cfg); err == nil {
			t.Fatalf("out-of-range shard %+v run", r)
		}
	}
}

// TestRunRangeSharedCacheIdentical runs the whole corpus as one
// shard over a shared disk level twice: rows — cache counters
// included — must fold to the oracle's report both cold and warm, and
// the warm pass must be served predominantly from the disk level.
func TestRunRangeSharedCacheIdentical(t *testing.T) {
	spec := jobSpec()
	base := Config{Workers: 2, Seeds: 1, Duration: 50e6}
	want := oracle(t, spec, base)

	disk, err := cache.NewDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(disk.Close)
	shared := base
	shared.Cache = disk
	for pass, name := range []string{"cold", "warm"} {
		rows, partial, err := RunRange(context.Background(), spec, 0, spec.Count, shared)
		if err != nil {
			t.Fatal(err)
		}
		j, err := NewSpecJob(spec, base)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.InstallShard(rows, partial); err != nil {
			t.Fatal(err)
		}
		got, err := j.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		matchOracle(t, name+" shared-cache shard", got, want)
		if ds := disk.Stats(); pass == 1 && ds.Hits == 0 {
			t.Fatalf("warm pass never hit the shared disk level: %+v", ds)
		}
	}
}

// TestConfigCacheStaysLocal documents that the shared cache never
// travels through a checkpoint: a restored job has a nil Cache.
func TestConfigCacheStaysLocal(t *testing.T) {
	cfg := Config{Workers: 1, Seeds: -1, Duration: 50e6, Cache: cache.NewLRU(0)}
	j, err := NewSpecJob(jobSpec(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := j.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreJob(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Config().Cache != nil {
		t.Fatal("checkpoint transported the process-local cache")
	}
}
