package whatif

import (
	"reflect"
	"testing"

	"repro/internal/cache"
)

// busWorkload drives one session through the canonical edit loop and
// returns the reports it produced plus the final session stats.
func busWorkload(t *testing.T, store cache.Store) ([]any, Stats) {
	t.Helper()
	k := testMatrix(24)
	sess := NewBusSession(k, worstCfg(), Options{Store: store, Workers: 1})
	var reports []any
	step := func() {
		rep, err := sess.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep)
	}
	step() // cold
	step() // repeat: whole-report hit
	if err := sess.Apply(SetJitter{Message: k.Messages[len(k.Messages)-1].Name, Jitter: 1234 * us}); err != nil {
		t.Fatal(err)
	}
	step() // dirty suffix
	sess.Reset()
	step() // revert
	return reports, sess.Stats()
}

// TestTieredSessionPinned is the bit-identity contract of the shared
// second level: running the same workload over (a) a private LRU,
// (b) a cold tiered store and (c) a tiered store whose disk level is
// already warm from an earlier run must produce deep-equal reports AND
// identical session counters — the L2 accelerates, it never shows up
// in results or statistics.
func TestTieredSessionPinned(t *testing.T) {
	refReports, refStats := busWorkload(t, nil)

	disk, err := cache.NewDisk(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(disk.Close)
	coldReports, coldStats := busWorkload(t, cache.NewTiered(cache.NewLRU(0), disk))
	if !reflect.DeepEqual(coldReports, refReports) {
		t.Fatal("cold tiered run: reports differ from private-LRU run")
	}
	if got, want := sessionOnly(coldStats), sessionOnly(refStats); got != want {
		t.Fatalf("cold tiered run: stats %+v, want %+v", got, want)
	}

	// Second run over the now-warm disk level, with a fresh L1.
	warmReports, warmStats := busWorkload(t, cache.NewTiered(cache.NewLRU(0), disk))
	if !reflect.DeepEqual(warmReports, refReports) {
		t.Fatal("warm tiered run: reports differ from private-LRU run")
	}
	if got, want := sessionOnly(warmStats), sessionOnly(refStats); got != want {
		t.Fatalf("warm tiered run: stats %+v, want %+v", got, want)
	}
	if coldStats.SharedHits != 0 {
		t.Fatalf("cold run charged %d shared-level hits over an empty disk", coldStats.SharedHits)
	}
	if warmStats.SharedHits == 0 {
		t.Fatalf("warm run never touched the disk level: %+v", warmStats)
	}
	if ds := disk.Stats(); ds.Hits == 0 {
		t.Fatalf("disk level reports no hits on the warm rerun: %+v", ds)
	}
}

// sessionOnly strips the store snapshot and the unpinned SharedHits,
// leaving the per-session counters that campaign rows embed.
func sessionOnly(s Stats) Stats {
	s.Store = cache.Stats{}
	s.SharedHits = 0
	return s
}

// TestTieredSystemSessionPinned is the system-level counterpart: the
// multi-resource fixpoint over a warm tiered store matches the
// private-LRU analysis and counters exactly.
func TestTieredSystemSessionPinned(t *testing.T) {
	run := func(store cache.Store) (*SystemSession, Stats) {
		sess := NewSystemSession(fullSystem(t), Options{Store: store, Workers: 1})
		if _, err := sess.Analyze(0); err != nil {
			t.Fatal(err)
		}
		if err := sess.Apply(SetEventJitter{Resource: "busA", Element: "noiseA", Jitter: 1500 * us}); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Analyze(0); err != nil {
			t.Fatal(err)
		}
		return sess, sess.Stats()
	}
	refSess, refStats := run(nil)
	refA, err := refSess.Analyze(0)
	if err != nil {
		t.Fatal(err)
	}

	disk, derr := cache.NewDisk(t.TempDir(), 0)
	if derr != nil {
		t.Fatal(derr)
	}
	t.Cleanup(disk.Close)
	_, coldStats := run(cache.NewTiered(cache.NewLRU(0), disk))
	if got, want := sessionOnly(coldStats), sessionOnly(refStats); got != want {
		t.Fatalf("cold tiered system run: stats %+v, want %+v", got, want)
	}

	warmSess, warmStats := run(cache.NewTiered(cache.NewLRU(0), disk))
	if got, want := sessionOnly(warmStats), sessionOnly(refStats); got != want {
		t.Fatalf("warm tiered system run: stats %+v, want %+v", got, want)
	}
	warmA, err := warmSess.Analyze(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warmA, refA) {
		t.Fatal("warm tiered system analysis differs from private-LRU analysis")
	}
	if warmStats.SharedHits == 0 {
		t.Fatalf("warm system run never hit the disk level: %+v", warmStats)
	}
}
