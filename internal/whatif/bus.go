package whatif

import (
	"repro/internal/cache"
	"repro/internal/contenthash"
	"repro/internal/kmatrix"
	"repro/internal/rta"
)

// Options configures a session.
type Options struct {
	// Store is the shared content-addressed memo; nil creates a private
	// in-process cache.LRU with cache.DefaultCapacity. Sharing one store
	// across sessions (a service's sessions, a campaign scenario's
	// baseline and perturbed analyses) lets variants share work; a
	// cache.Tiered store additionally shares converged results across
	// processes and runs.
	Store cache.Store
	// Workers bounds the fan-out of per-session analyses (<= 0 selects
	// GOMAXPROCS). Results are identical for every worker count.
	Workers int
}

// Stats counts what a session's analyses actually did. The counters
// are pinned to the in-process cache level: a hit served by a shared
// second level (cache.Tiered) avoids the recomputation but is charged
// as a miss, so the statistics — which campaign rows embed — are
// identical whether or not a warm shared cache sits behind the store.
type Stats struct {
	// ReportHits counts analyses satisfied entirely by a memoized
	// whole-report entry (e.g. a revert to an already-analysed variant).
	ReportHits uint64
	// Hits counts per-message results reused from the in-process level.
	Hits uint64
	// Misses counts per-message analyses not answered in-process
	// (recomputed, or served by a shared second level).
	Misses uint64
	// Store snapshots the (possibly shared) backing store.
	Store cache.Stats
}

// tagBusReport is the key-family tag of whole-bus reports.
const tagBusReport = 0x4255535245503161 // "BUSREP1a"

// BusSession is an incremental what-if session over one communication
// matrix: apply ChangeSets, re-analyse, and pay only for the messages a
// change can reach. The returned reports are bit-identical to
// rta.Analyze on the edited matrix and shared with the memo store —
// treat them as read-only.
type BusSession struct {
	store   cache.Store
	cfg     rta.Config
	workers int
	busName string
	bitRate int
	base    []kmatrix.Message
	cur     []kmatrix.Message
	stats   Stats
}

// NewBusSession opens a session on a snapshot of k. The analysis
// configuration's Bus field is overwritten from the matrix, mirroring
// the sweep and optimizer entry points.
func NewBusSession(k *kmatrix.KMatrix, analysis rta.Config, opts Options) *BusSession {
	store := opts.Store
	if store == nil {
		store = cache.NewLRU(0)
	}
	analysis.Bus = k.Bus()
	return &BusSession{
		store:   store,
		cfg:     analysis,
		workers: opts.Workers,
		busName: k.BusName,
		bitRate: k.BitRate,
		base:    cloneRows(k.Messages),
		cur:     cloneRows(k.Messages),
	}
}

// cloneRows copies the row structs only: sessions never mutate a
// Receivers slice in place, so base and working copies may share them
// (Matrix deep-copies before handing rows to callers).
func cloneRows(rows []kmatrix.Message) []kmatrix.Message {
	out := make([]kmatrix.Message, len(rows))
	copy(out, rows)
	return out
}

// Apply applies the changes in order. On error the session state is the
// result of the changes that succeeded before it.
func (s *BusSession) Apply(changes ...Change) error {
	for _, c := range changes {
		next, err := c.apply(s.cur)
		if err != nil {
			return err
		}
		s.cur = next
	}
	return nil
}

// Reset restores the session to the base matrix (revert-to-original).
func (s *BusSession) Reset() {
	s.cur = cloneRows(s.base)
}

// Matrix returns a deep copy of the current (edited) matrix.
func (s *BusSession) Matrix() *kmatrix.KMatrix {
	rows := cloneRows(s.cur)
	for i := range rows {
		if rcv := rows[i].Receivers; rcv != nil {
			rows[i].Receivers = append([]string(nil), rcv...)
		}
	}
	return &kmatrix.KMatrix{BusName: s.busName, BitRate: s.bitRate, Messages: rows}
}

// Analyze re-verifies the current matrix. A variant already in the
// store returns its memoized report outright; otherwise only messages
// whose input digests are new are re-analysed (rta.AnalyzeCached).
func (s *BusSession) Analyze() (*rta.Report, error) {
	msgs := make([]rta.Message, len(s.cur))
	for i, m := range s.cur {
		msgs[i] = m.ToRTA()
	}
	key := reportKey(tagBusReport, s.cfg, msgs)
	// Whole-report snapshots resolve against the in-process level only:
	// a second-level short-circuit here would skip the per-message
	// counter activity and make the session statistics (and the L1
	// population) depend on shared-cache state.
	if v, ok := cache.GetPrimary(s.store, key); ok {
		if rep, ok := v.(*rta.Report); ok {
			s.stats.ReportHits++
			return rep, nil
		}
	}
	cc := countingCache{store: s.store, stats: &s.stats}
	rep, err := rta.AnalyzeCached(msgs, s.cfg, &cc, s.workers)
	if err != nil {
		return nil, err
	}
	cache.PutPrimary(s.store, key, rep)
	return rep, nil
}

// Stats returns the session's hit/miss counters plus a snapshot of the
// backing store.
func (s *BusSession) Stats() Stats {
	st := s.stats
	st.Store = s.store.Stats()
	return st
}

// reportKey digests a whole resource: configuration plus all messages
// in the given order.
func reportKey(tag uint64, cfg rta.Config, msgs []rta.Message) contenthash.Digest {
	h := contenthash.New(tag)
	rta.HashConfig(&h, cfg)
	rta.HashMessages(&h, msgs)
	return h.Sum()
}

// countingCache forwards to the shared store while attributing hits and
// misses to one session. Analyses call Get and Put serially, so plain
// counters suffice.
type countingCache struct {
	store cache.Store
	stats *Stats
}

// Get counts a hit only when the in-process level answered. A shared
// second-level hit still returns the value (the caller skips the
// recomputation and the store promotes the entry into L1, which is
// exactly where a cold run's Put would have placed it) but is charged
// as a miss, keeping session counters independent of shared state.
func (c *countingCache) Get(key contenthash.Digest) (any, bool) {
	v, primary, ok := cache.GetLeveled(c.store, key)
	if ok && primary {
		c.stats.Hits++
	} else {
		c.stats.Misses++
	}
	return v, ok
}

func (c *countingCache) Put(key contenthash.Digest, v any) { c.store.Put(key, v) }
