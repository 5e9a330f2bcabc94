package whatif

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
)

// newTestRegistry registers n fullSystem sessions sharing one store.
func newTestRegistry(t *testing.T, ttl time.Duration, n int) (*Registry, []string) {
	t.Helper()
	r := NewRegistry(ttl)
	store := cache.NewLRU(0)
	ids := make([]string, n)
	for i := range ids {
		id, err := r.Add(NewSystemSession(fullSystem(t), Options{Store: store, Workers: 1}), "test")
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return r, ids
}

func TestRegistryAcquireRelease(t *testing.T) {
	r, ids := newTestRegistry(t, 0, 2)
	if r.TTL() != DefaultSessionTTL {
		t.Fatalf("default TTL = %v, want %v", r.TTL(), DefaultSessionTTL)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	if ids[0] == ids[1] {
		t.Fatalf("duplicate session ids %q", ids[0])
	}
	sess, release, ok := r.Acquire(ids[0])
	if !ok || sess == nil {
		t.Fatalf("Acquire(%q) failed", ids[0])
	}
	if _, err := sess.Analyze(0); err != nil {
		t.Fatal(err)
	}
	release()

	if _, _, ok := r.Acquire("nope"); ok {
		t.Fatal("Acquire of unknown id succeeded")
	}
	if !r.Remove(ids[1]) {
		t.Fatalf("Remove(%q) = false", ids[1])
	}
	if r.Remove(ids[1]) {
		t.Fatal("second Remove succeeded")
	}
	if _, _, ok := r.Acquire(ids[1]); ok {
		t.Fatal("Acquire of removed session succeeded")
	}
}

func TestRegistrySweepEvictsIdleOnly(t *testing.T) {
	r, ids := newTestRegistry(t, time.Minute, 3)
	base := time.Unix(1000, 0)
	now := base
	r.mu.Lock()
	r.now = func() time.Time { return now }
	for _, it := range r.items {
		it.lastUsed = base
	}
	r.mu.Unlock()

	// Within the TTL nothing is evicted.
	now = base.Add(30 * time.Second)
	if n := r.Sweep(); n != 0 {
		t.Fatalf("early Sweep evicted %d", n)
	}

	// Refresh one session via acquire/release; hold another acquired.
	_, release0, _ := r.Acquire(ids[0])
	release0() // lastUsed = base+30s
	_, release1, ok := r.Acquire(ids[1])
	if !ok {
		t.Fatal("acquire failed")
	}

	now = base.Add(70 * time.Second)
	// ids[2] is idle since base and must go; ids[0] was refreshed;
	// ids[1] is in use and must survive despite its age.
	if n := r.Sweep(); n != 1 {
		t.Fatalf("Sweep evicted %d sessions, want 1", n)
	}
	if _, _, ok := r.Acquire(ids[2]); ok {
		t.Fatal("evicted session still acquirable")
	}
	release1()

	st := r.Stats()
	if st.Active != 2 || st.Created != 3 || st.Evicted != 1 {
		t.Fatalf("Stats = %+v, want active 2, created 3, evicted 1", st)
	}
}

// TestRegistryTenantQuota pins the fairness contract: an owner at its
// quota evicts only its own oldest idle session, never another
// tenant's, and fails cleanly when all its sessions are acquired.
func TestRegistryTenantQuota(t *testing.T) {
	r := NewRegistry(time.Minute)
	r.SetTenantQuota(2)
	store := cache.NewLRU(0)
	add := func(owner string) string {
		t.Helper()
		id, err := r.Add(NewSystemSession(fullSystem(t), Options{Store: store, Workers: 1}), owner)
		if err != nil {
			t.Fatalf("Add(%s): %v", owner, err)
		}
		return id
	}

	a1 := add("a")
	b1 := add("b")
	a2 := add("a")
	// Owner a is at quota; a third Add evicts a1 (its oldest idle) and
	// leaves b1 untouched.
	a3 := add("a")
	if _, _, ok := r.Acquire(a1); ok {
		t.Fatal("quota Add did not evict the owner's oldest idle session")
	}
	for _, id := range []string{b1, a2, a3} {
		_, release, ok := r.Acquire(id)
		if !ok {
			t.Fatalf("session %s was evicted by another tenant's storm", id)
		}
		release()
	}

	// With both of a's sessions acquired, Add must fail rather than
	// evict an in-use session (or a foreign one).
	_, rel2, _ := r.Acquire(a2)
	_, rel3, _ := r.Acquire(a3)
	_, err := r.Add(NewSystemSession(fullSystem(t), Options{Store: store, Workers: 1}), "a")
	if !errors.Is(err, ErrSessionQuota) {
		t.Fatalf("Add over quota with no idle session: err = %v, want ErrSessionQuota", err)
	}
	rel2()
	rel3()
	if _, _, ok := r.Acquire(b1); !ok {
		t.Fatal("tenant b's session did not survive tenant a's quota pressure")
	}

	st := r.Stats()
	if st.QuotaEvicted != 1 || st.Tenants != 2 {
		t.Fatalf("Stats = %+v, want QuotaEvicted 1, Tenants 2", st)
	}
}

// TestRegistrySweepAcquireRace races TTL sweeps against concurrent
// acquisition with an aggressively advancing injected clock: a session
// that is currently acquired must never be evicted, no matter how the
// sweep interleaves. Run under -race this also proves the counter and
// clock handshakes are data-race free.
func TestRegistrySweepAcquireRace(t *testing.T) {
	r := NewRegistry(time.Millisecond)
	store := cache.NewLRU(0)

	// An injected clock the sweeper advances past the TTL on every
	// iteration, so every idle session is always evictable.
	var clockMu sync.Mutex
	now := time.Unix(1000, 0)
	r.mu.Lock()
	r.now = func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return now
	}
	r.mu.Unlock()
	advance := func() {
		clockMu.Lock()
		now = now.Add(2 * time.Millisecond)
		clockMu.Unlock()
	}

	const holders = 4
	const iters = 200
	// held[i] is set while holder i has its session acquired; the
	// sweeper asserts those ids are still registered after each sweep.
	var heldIDs [holders]atomic.Value // string; "" when idle
	for i := range heldIDs {
		heldIDs[i].Store("")
	}
	stop := make(chan struct{})
	var sweeperErr atomic.Value
	var sweeperWG, holderWG sync.WaitGroup
	sweeperWG.Add(1)
	go func() {
		defer sweeperWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			advance()
			r.Sweep()
			r.mu.Lock()
			for i := range heldIDs {
				if id := heldIDs[i].Load().(string); id != "" {
					if _, ok := r.items[id]; !ok {
						sweeperErr.Store(fmt.Sprintf("held session %s evicted by sweep", id))
					}
				}
			}
			r.mu.Unlock()
		}
	}()

	for h := 0; h < holders; h++ {
		holderWG.Add(1)
		go func(h int) {
			defer holderWG.Done()
			sess := NewSystemSession(fullSystem(t), Options{Store: store, Workers: 1})
			for i := 0; i < iters; i++ {
				id, err := r.Add(sess, "racer")
				if err != nil {
					t.Errorf("holder %d: %v", h, err)
					return
				}
				got, release, ok := r.Acquire(id)
				if !ok {
					// The session idled between Add and Acquire and the
					// sweeper collected it — legitimate; try again.
					continue
				}
				// The conservative held window: set after Acquire
				// returned (inUse already counted), cleared before
				// release — any eviction the sweeper observes inside it
				// is a true contract violation.
				heldIDs[h].Store(id)
				if got != sess {
					t.Errorf("holder %d: acquired a foreign session", h)
				}
				heldIDs[h].Store("")
				release()
				r.Remove(id)
			}
		}(h)
	}

	// Sweeps keep running until every holder has finished its loop, so
	// the race window is exercised for the whole test.
	holderWG.Wait()
	close(stop)
	sweeperWG.Wait()
	if msg := sweeperErr.Load(); msg != nil {
		t.Fatal(msg)
	}
}

// TestRegistryConcurrentSessions hammers the registry from many
// goroutines — concurrent edits of distinct sessions plus serialized
// edits of one shared session — and checks under the race detector
// that per-session locking keeps every analysis internally consistent.
func TestRegistryConcurrentSessions(t *testing.T) {
	r, ids := newTestRegistry(t, time.Minute, 4)
	shared := ids[0]
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := shared
			if g%2 == 0 {
				id = ids[1+g%3]
			}
			for i := 0; i < 5; i++ {
				sess, release, ok := r.Acquire(id)
				if !ok {
					errs <- fmt.Errorf("goroutine %d: acquire %q failed", g, id)
					return
				}
				err := sess.Apply(SetEventJitter{
					Resource: "busA", Element: "M1",
					Jitter: time.Duration(g*10+i+1) * 10 * time.Microsecond,
				})
				if err == nil {
					_, err = sess.Analyze(0)
				}
				release()
				if err != nil {
					errs <- fmt.Errorf("goroutine %d: %v", g, err)
					return
				}
				r.Stats() // concurrent aggregation must be safe too
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The shared session's final state is one of the applied jitters;
	// a serial re-application of that jitter must reproduce its bounds.
	sess, release, ok := r.Acquire(shared)
	if !ok {
		t.Fatal("shared session vanished")
	}
	defer release()
	got, err := sess.Analyze(0)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := sess.System()
	if err != nil {
		t.Fatal(err)
	}
	want, err := sys.Analyze(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Paths) != len(want.Paths) {
		t.Fatalf("path count %d != %d", len(got.Paths), len(want.Paths))
	}
	for i := range got.Paths {
		if got.Paths[i].Latency != want.Paths[i].Latency {
			t.Errorf("path %s: session latency %v != from-scratch %v",
				got.Paths[i].Name, got.Paths[i].Latency, want.Paths[i].Latency)
		}
	}
}
