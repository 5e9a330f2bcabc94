package whatif

import (
	"repro/internal/cache"
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
	// SharedHits counts the Misses a shared second level answered. It
	// depends on the shared level's state, so it is not pinned: no
	// campaign row, service response or SessionInfo reads it, only the
	// cache.l2 trace span.
	SharedHits uint64
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
	memo    memo
	cfg     rta.Config
	busName string
	bitRate int
	base    []kmatrix.Message
	cur     []kmatrix.Message
}

// NewBusSession opens a session on a snapshot of k. The analysis
// configuration's Bus field is overwritten from the matrix, mirroring
// the sweep and optimizer entry points.
func NewBusSession(k *kmatrix.KMatrix, analysis rta.Config, opts Options) *BusSession {
	analysis.Bus = k.Bus()
	return &BusSession{
		memo:    newMemo(opts),
		cfg:     analysis,
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

// Analyze re-verifies the current matrix through the session's bus
// memo: a variant already in the store returns its memoized report
// outright; otherwise only messages whose input digests are new are
// re-analysed.
func (s *BusSession) Analyze() (*rta.Report, error) {
	msgs := make([]rta.Message, len(s.cur))
	for i, m := range s.cur {
		msgs[i] = m.ToRTA()
	}
	return s.memo.bus(msgs, s.cfg)
}

// Stats returns the session's hit/miss counters plus a snapshot of the
// backing store.
func (s *BusSession) Stats() Stats { return s.memo.snapshot() }
