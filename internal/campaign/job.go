package campaign

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/scenario"
)

// Job is a resumable campaign execution: per-scenario rows are
// recorded as they complete, so a run interrupted by context
// cancellation (service shutdown, operator cancel) keeps its finished
// work and a later Run continues with only the pending scenarios. The
// final report is bit-identical no matter how many times the run was
// interrupted and resumed, because rows are independent and the
// aggregate folds them in corpus order.
//
// A job holds only its spec: scenarios are generated on demand — per
// index locally, per shard range on distributed workers — and the
// corpus fingerprint is folded incrementally from scenario leaf
// digests, so a 50k-scenario campaign never materializes its corpus.
//
// Job is safe for concurrent Progress/Report reads while one Run is
// executing; concurrent Runs of the same job are not supported.
type Job struct {
	spec scenario.Spec // defaulted generation parameters
	cfg  Config

	mu        sync.Mutex
	rows      []ScenarioResult
	done      []bool
	completed int
	// leafed marks rows whose scenario leaf digest has been folded into
	// partial; rows installed without a partial (checkpoint restore)
	// are folded lazily when the report fingerprint is resolved.
	leafed  []bool
	partial scenario.Partial
	// expected, when set, is the corpus fingerprint the fold must
	// reproduce — a shard whose rows were computed under a drifted or
	// tampered corpus makes the final fold mismatch and fails the run.
	expected string
	report   *Report
}

// NewSpecJob prepares a campaign from generation parameters without
// starting it: no scenario is drawn until it is needed, locally by
// index or remotely by shard range, so the job's memory footprint is
// O(rows), never O(corpus). The configuration is defaulted exactly as
// Run defaults it.
func NewSpecJob(spec scenario.Spec, cfg Config) (*Job, error) {
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	n := spec.Count
	return &Job{
		spec:   spec,
		cfg:    cfg.withDefaults(),
		rows:   make([]ScenarioResult, n),
		done:   make([]bool, n),
		leafed: make([]bool, n),
	}, nil
}

// Total returns the corpus size.
func (j *Job) Total() int { return j.spec.Count }

// Spec returns the job's (defaulted) generation parameters.
func (j *Job) Spec() scenario.Spec { return j.spec }

// Config returns the job's effective (defaulted) configuration.
func (j *Job) Config() Config { return j.cfg }

// SetExpectedFingerprint pins the corpus fingerprint the incremental
// fold must reproduce. Checkpoint restores and callers that know the
// corpus identity set it; the final Run fails if the folded
// fingerprint differs — the tamper/drift rejection of the shard
// protocol.
func (j *Job) SetExpectedFingerprint(fp string) {
	j.mu.Lock()
	j.expected = fp
	j.mu.Unlock()
}

// ShardRange is a contiguous run of scenario indices.
type ShardRange struct {
	// Start is the index of the first scenario of the shard.
	Start int `json:"start"`
	// Count is the number of scenarios in the shard.
	Count int `json:"count"`
}

// End returns the index one past the last scenario of the shard.
func (r ShardRange) End() int { return r.Start + r.Count }

// PendingRanges covers the pending scenario set with contiguous
// ranges of at most size scenarios each (size <= 0 selects
// DefaultShardSize). The ranges are disjoint, ordered by Start, and
// together hold exactly the scenarios that have no recorded row, so a
// coordinator can dispatch them as shards and install the results via
// InstallShard.
func (j *Job) PendingRanges(size int) []ShardRange {
	if size <= 0 {
		size = DefaultShardSize
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	var ranges []ShardRange
	for i := 0; i < len(j.done); {
		if j.done[i] {
			i++
			continue
		}
		start := i
		for i < len(j.done) && !j.done[i] && i-start < size {
			i++
		}
		ranges = append(ranges, ShardRange{Start: start, Count: i - start})
	}
	return ranges
}

// DefaultShardSize is the shard granularity when none is configured:
// small enough that a retried shard wastes little work, large enough
// that per-shard overhead (slice generation, HTTP round trip)
// amortises.
const DefaultShardSize = 256

// MaxShardSize is the largest shard a worker accepts, 16x
// DefaultShardSize: a shard request names its own corpus spec, so its
// count must be bounded before anything is generated.
const MaxShardSize = 4096

// MaxSimSeeds and MaxSimDuration bound the simulation one request may
// commit a process to: seeds netsim runs of duration simulated time per
// scenario. CrossValidate does not stop for a cancelled request, so the
// network edges (the service's simulate and campaign routes, a worker's
// shard route, the distributed coordinator) refuse larger values before
// any work starts. The defaults are 2 seeds of 200ms.
const (
	MaxSimSeeds    = 64
	MaxSimDuration = 10 * time.Second
)

// CheckSimulation reports whether seeds runs of duration each stay
// within MaxSimSeeds and MaxSimDuration.
func CheckSimulation(seeds int, duration time.Duration) error {
	if seeds > MaxSimSeeds {
		return fmt.Errorf("campaign: %d simulation seeds exceed the maximum %d", seeds, MaxSimSeeds)
	}
	if duration > MaxSimDuration {
		return fmt.Errorf("campaign: simulated span %v exceeds the maximum %v", duration, MaxSimDuration)
	}
	return nil
}

// InstallShard records a completed shard together with its partial
// fingerprint — the additive fold of the shard's scenario leaf
// digests, computed by whoever generated the slice. The partial must
// cover exactly the shard's rows, and an index outside the corpus is
// an error. When every row is new the partial merges into the job's
// incremental corpus fold; a duplicate shard (retry that lost the
// race) is ignored whole, fold included, so no leaf is ever counted
// twice. Installing the last pending rows does not fold the report;
// the next Run (with nothing pending) folds and returns it.
func (j *Job) InstallShard(rows []ScenarioResult, partial scenario.Partial) error {
	if partial.N != len(rows) {
		return fmt.Errorf("campaign: shard partial covers %d leaves for %d rows", partial.N, len(rows))
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	installed, err := j.installLocked(rows)
	if err != nil {
		return err
	}
	if installed == len(rows) {
		j.partial.Merge(partial)
		for i := range rows {
			j.leafed[rows[i].Index] = true
		}
	}
	return nil
}

// installLocked records the new rows, returning how many were not
// already done. Rows are deterministic, so a duplicate carries the
// same values and is skipped. Callers hold j.mu.
func (j *Job) installLocked(rows []ScenarioResult) (installed int, err error) {
	for i := range rows {
		idx := rows[i].Index
		if idx < 0 || idx >= len(j.rows) {
			return installed, fmt.Errorf("campaign: install row index %d outside corpus of %d", idx, len(j.rows))
		}
		if j.done[idx] {
			continue
		}
		j.rows[idx] = rows[i]
		j.done[idx] = true
		j.completed++
		installed++
	}
	return installed, nil
}

// Progress returns how many scenarios have completed.
func (j *Job) Progress() (completed, total int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.completed, len(j.rows)
}

// Report returns the final report, or nil while scenarios are pending.
func (j *Job) Report() *Report {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.report
}

// resolveFingerprintLocked completes the incremental corpus fold —
// leaves not yet folded (rows restored from a checkpoint, or a shard
// that only partly overlapped installed rows) are regenerated by index
// — finalizes it into the corpus fingerprint, and verifies it against
// the expected fingerprint when one is pinned. A mismatch means some
// installed rows were computed over a different population than the
// fold claims: the report would be silently wrong, so the run fails
// loudly instead. Callers hold j.mu.
func (j *Job) resolveFingerprintLocked() (string, error) {
	for i, d := range j.done {
		if !d || j.leafed[i] {
			continue
		}
		sc, err := scenario.GenerateOne(j.spec, i)
		if err != nil {
			return "", fmt.Errorf("campaign: %w", err)
		}
		j.partial.Add(scenario.Leaf(sc))
		j.leafed[i] = true
	}
	d, err := scenario.FingerprintFrom(j.spec, j.partial)
	if err != nil {
		return "", fmt.Errorf("campaign: %w", err)
	}
	fp := d.String()
	if j.expected != "" && fp != j.expected {
		return "", fmt.Errorf("campaign: folded corpus fingerprint %s does not match expected %s — a shard returned rows for a drifted or tampered corpus", fp, j.expected)
	}
	return fp, nil
}

// Run processes every pending scenario, sharded over the worker pool.
// On context cancellation it stops claiming new scenarios, keeps every
// completed row, and returns the context error — a later Run resumes
// from exactly the pending set. A scenario failure also leaves
// completed rows in place (the deterministic first failure by index is
// returned; failed scenarios stay pending). When the last scenario
// completes, the incremental corpus fold is verified and the aggregate
// report folded once and returned; calling Run on a finished job
// returns the same report.
func (j *Job) Run(ctx context.Context) (*Report, error) {
	j.mu.Lock()
	if j.report != nil {
		rep := j.report
		j.mu.Unlock()
		return rep, nil
	}
	pending := make([]int, 0, len(j.done)-j.completed)
	for i, d := range j.done {
		if !d {
			pending = append(pending, i)
		}
	}
	j.mu.Unlock()

	ctx, csp := obs.StartSpan(ctx, "campaign.run")
	csp.SetInt("pending", int64(len(pending)))
	csp.SetInt("total", int64(len(j.done)))
	defer csp.End()

	err := runEach(ctx, len(pending), j.cfg.Workers, func(k int) error {
		i := pending[k]
		row, leaf, err := runIndex(ctx, j.spec, i, j.cfg)
		if err != nil {
			return err
		}
		j.mu.Lock()
		j.rows[i] = row
		j.done[i] = true
		j.completed++
		if !j.leafed[i] {
			j.partial.Add(leaf)
			j.leafed[i] = true
		}
		j.mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}

	j.mu.Lock()
	defer j.mu.Unlock()
	fp, err := j.resolveFingerprintLocked()
	if err != nil {
		return nil, err
	}
	j.report = aggregate(j.spec, fp, j.cfg, j.rows)
	return j.report, nil
}
