package distrib

import (
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// WireVersion guards the shard protocol: a coordinator and worker of
// different versions refuse each other loudly instead of folding rows
// computed under drifted semantics. A request carries the corpus as a
// spec-only reference plus a range; the worker generates only that
// range and the response carries the additive partial fingerprint of
// the generated slice for the coordinator's incremental fold. Workers
// reject every other version.
const WireVersion = 2

// ShardPath is the worker endpoint shards are POSTed to.
const ShardPath = "/v1/shards"

// HealthPath is the worker liveness endpoint.
const HealthPath = "/healthz"

// ShardConfig is the analysis configuration that travels with a
// shard. It deliberately excludes campaign.Config.Workers (each worker
// sizes its own pool — parallelism never changes rows) and
// campaign.Config.Cache (the shared level is process-local; workers
// bring their own).
type ShardConfig struct {
	Seeds         int   `json:"seeds"`
	DurationNS    int64 `json:"duration_ns"`
	StoreCapacity int   `json:"store_capacity"`
	MaxIterations int   `json:"max_iterations"`
}

// NewShardConfig strips a campaign configuration down to the fields
// that determine row content.
func NewShardConfig(cfg campaign.Config) ShardConfig {
	return ShardConfig{
		Seeds:         cfg.Seeds,
		DurationNS:    int64(cfg.Duration),
		StoreCapacity: cfg.StoreCapacity,
		MaxIterations: cfg.MaxIterations,
	}
}

// Campaign expands the wire configuration back into a campaign.Config
// with the given local worker-pool size.
func (c ShardConfig) Campaign(workers int) campaign.Config {
	return campaign.Config{
		Workers:       workers,
		Seeds:         c.Seeds,
		Duration:      time.Duration(c.DurationNS),
		StoreCapacity: c.StoreCapacity,
		MaxIterations: c.MaxIterations,
	}
}

// ShardRequest asks a worker to compute rows for the contiguous
// scenario range [Start, Start+Count) of the referenced corpus. The
// reference is spec-only (empty fingerprint) and the worker draws
// exactly the requested range.
type ShardRequest struct {
	Version int                `json:"version"`
	Corpus  campaign.CorpusRef `json:"corpus"`
	Start   int                `json:"start"`
	Count   int                `json:"count"`
	Config  ShardConfig        `json:"config"`
}

// ShardResponse carries the computed rows, index-aligned with the
// requested range, in the lossless WireRow encoding. Partial is the
// scenario.Partial fold of the slice the worker generated, in its
// String encoding — the coordinator merges the per-shard partials and
// verifies the finalized fingerprint instead of regenerating the
// corpus. Spans carries the worker-side execution trace when the
// request arrived with a trace header; it is empty otherwise, so
// untraced responses are unchanged byte-for-byte. Row compression is
// not part of this struct: bodies travel gzip-encoded when the
// requester advertises Accept-Encoding: gzip, at the HTTP layer.
type ShardResponse struct {
	Version int                `json:"version"`
	Rows    []campaign.WireRow `json:"rows"`
	Partial string             `json:"partial,omitempty"`
	Spans   []obs.WireSpan     `json:"spans,omitempty"`
}
