package rta

import (
	"fmt"
	"time"

	"repro/internal/contenthash"
	"repro/internal/errormodel"
	"repro/internal/parallel"
)

// ResultCache is a content-addressed store for converged per-message
// results. Get returns the value previously Put under the key, if it is
// still resident; the cache may evict at will (eviction only costs
// recomputation). Implementations used from concurrent analyses must be
// safe for concurrent use; AnalyzeCached itself calls Get and Put only
// from the calling goroutine.
type ResultCache interface {
	Get(key contenthash.Digest) (any, bool)
	Put(key contenthash.Digest, value any)
}

// tagMessageResult is the key-family tag of per-message Results.
const tagMessageResult = 0x5254414D53473164 // "RTAMSG1d"

// AnalyzeCached computes the same report as Analyze, fetching converged
// per-message results from the cache when the digest of their analysis
// inputs matches and fanning the remaining analyses over a worker pool
// (workers <= 0 selects GOMAXPROCS). With a nil cache every message
// misses and nothing is hashed, read or stored: the plain parallel
// analysis, for large matrices and the inner loop of sweeps and
// priority searches.
//
// A message's response time is a pure function of the analysis
// configuration, the priority-ordered messages at and above its level
// (event models and wire times), and the worst lower-priority wire time
// (blocking). The key covers exactly those inputs — see resultKeys — so
// a cached result is bit-identical to recomputation, and the report is
// byte-identical to Analyze for any cache state and worker count. What
// changes with the cache is only which messages are re-analysed: after
// an edit, messages whose interference prefix is untouched cost one
// cache probe instead of a busy-period fixpoint.
func AnalyzeCached(msgs []Message, cfg Config, cache ResultCache, workers int) (*Report, error) {
	p, err := prepare(msgs, cfg)
	if err != nil {
		return nil, err
	}
	var keys []contenthash.Digest
	var missIdx []int
	if cache == nil {
		missIdx = make([]int, len(p.ordered))
		for i := range missIdx {
			missIdx[i] = i
		}
	} else {
		keys = resultKeys(p, cfg)
		for i := range p.ordered {
			if v, ok := cache.Get(keys[i]); ok {
				if res, ok := v.(*Result); ok {
					p.rep.Results[i] = *res
					continue
				}
			}
			missIdx = append(missIdx, i)
		}
	}
	if len(missIdx) > 0 {
		kernels := make([]*kernel, parallel.Workers(workers))
		parallel.For(len(missIdx), workers, func(worker, mi int) {
			k := kernels[worker]
			if k == nil {
				k = newKernel(p)
				kernels[worker] = k
			}
			i := missIdx[mi]
			// A cached rank i-1 was written before the fan-out and is
			// never written during it; its busy period, when it
			// converged, seeds rank i's.
			var prevBusy time.Duration
			if i > 0 && (mi == 0 || missIdx[mi-1] != i-1) && p.rep.Results[i-1].BusyPeriod != Unschedulable {
				prevBusy = p.rep.Results[i-1].BusyPeriod
			}
			p.rep.Results[i] = k.analyzeOne(i, prevBusy)
		})
	}
	if cache != nil {
		// Insert in priority order after the fan-out, so the cache's
		// recency state is independent of goroutine scheduling. Entries
		// are pointers into the report's result slice — boxing a pointer
		// is allocation-free on the hot path — so cached results (like
		// cached reports) are shared and must be treated as read-only.
		for _, i := range missIdx {
			cache.Put(keys[i], &p.rep.Results[i])
		}
	}
	return p.rep, nil
}

// resultKeys derives one content address per priority rank, in O(n)
// total: a running hasher absorbs the configuration and then the
// priority-ordered messages one by one; rank i's key is a snapshot of
// the chain after message i (covering the configuration and messages
// 0..i) plus the blocking term (the worst wire time below i). Anything
// analyzeOne reads is covered:
//
//   - cfg: bit rate (wire, bit and error-frame times), stuffing,
//     deadline model, single-instance flag, resolved horizon, error
//     model parameters;
//   - every higher-priority stream's event model and wire time (the
//     eta+ interference terms and the error context CMax);
//   - the message's own frame, event model, explicit deadline and wire
//     time;
//   - the blocking maximum over lower-priority wire times.
func resultKeys(p *prepared, cfg Config) []contenthash.Digest {
	n := len(p.ordered)
	keys := make([]contenthash.Digest, n)
	// blockingBelow[i] = max wire time of messages ranked below i.
	blockingBelow := make([]time.Duration, n+1)
	for i := n - 1; i >= 0; i-- {
		b := blockingBelow[i+1]
		if p.wire[i] > b {
			b = p.wire[i]
		}
		blockingBelow[i] = b
	}
	chain := contenthash.New(tagMessageResult)
	HashConfig(&chain, cfg)
	for i := range p.ordered {
		HashMessage(&chain, p.ordered[i])
		chain.Int(int64(p.wire[i]))
		key := chain // value copy: snapshot of cfg + messages 0..i
		key.Int(int64(blockingBelow[i+1]))
		keys[i] = key.Sum()
	}
	return keys
}

// HashConfig absorbs every analysis-relevant Config field into the
// hasher. Exported so that session layers (internal/whatif) derive
// whole-report keys from the same field set; keep it in sync with what
// prepare/analyzeOne read.
//
// Raw field values are hashed, with no default resolution: Horizon 0
// and an explicit DefaultHorizon (or Errors nil and errormodel.None)
// behave identically but echo different Configs in the report, and a
// shared key would hand one spelling the other's report — breaking
// byte-identity. Distinct keys at worst cost a recomputation.
func HashConfig(h *contenthash.Hasher, cfg Config) {
	h.String(cfg.Bus.Name)
	h.Int(int64(cfg.Bus.BitRate))
	h.Int(int64(cfg.Stuffing))
	h.Int(int64(cfg.DeadlineModel))
	h.Bool(cfg.ClassicSingleInstance)
	h.Int(int64(cfg.Horizon))
	switch e := cfg.Errors.(type) {
	case nil:
		h.Word(0)
	case errormodel.None:
		h.Word(4)
	case errormodel.Sporadic:
		h.Word(1)
		h.Int(int64(e.Interval))
	case errormodel.Burst:
		h.Word(2)
		h.Int(int64(e.Interval))
		h.Int(int64(e.Length))
		h.Int(int64(e.Gap))
	default:
		// Unknown models are fingerprinted by their Go value rendering;
		// value types with plain fields hash by content. Models holding
		// maps could render unstably, which costs cache misses, never
		// wrong hits.
		h.Word(3)
		h.String(fmt.Sprintf("%#v", cfg.Errors))
	}
}

// HashMessage absorbs one message's analysis inputs. Exported for the
// session layers' whole-report keys (the derived wire time is a
// function of the hashed frame, bit rate and stuffing).
func HashMessage(h *contenthash.Hasher, m Message) {
	h.String(m.Name)
	h.Word(uint64(m.Frame.ID))
	h.Int(int64(m.Frame.Format))
	h.Int(int64(m.Frame.DLC))
	h.Int(int64(m.Event.Period))
	h.Int(int64(m.Event.Jitter))
	h.Int(int64(m.Event.DMin))
	h.Bool(m.Event.Sporadic)
	h.Int(int64(m.Deadline))
}

// HashMessages absorbs a message slice in the given order. Session
// layers use it to derive whole-report keys; callers must present a
// canonical order.
func HashMessages(h *contenthash.Hasher, msgs []Message) {
	h.Int(int64(len(msgs)))
	for _, m := range msgs {
		HashMessage(h, m)
	}
}
