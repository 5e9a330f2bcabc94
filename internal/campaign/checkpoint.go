package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// checkpointVersion guards the checkpoint wire format: a restore of a
// different version fails loudly instead of resuming garbage. Version
// 2 moved the corpus reference into the shared CorpusRef shape used by
// the distributed shard protocol.
const checkpointVersion = 2

// checkpointFile is the serialised form of an interrupted Job: the
// corpus reference (spec plus fingerprint, verified on restore), the
// effective run configuration, and every completed row. Rows use the
// lossless WireRow encoding so a restored row is bit-identical to the
// one that was checkpointed — the resumed report must not differ from
// an uninterrupted run in a single byte.
type checkpointFile struct {
	Version int           `json:"version"`
	Corpus  CorpusRef     `json:"corpus"`
	Config  checkpointCfg `json:"config"`
	Rows    []WireRow     `json:"rows"`
}

type checkpointCfg struct {
	Workers    int   `json:"workers"`
	Seeds      int   `json:"seeds"`
	DurationNS int64 `json:"duration_ns"`
}

// Checkpoint serialises the job's completed rows and configuration so
// a later RestoreJob — in this process or after a restart — resumes
// with exactly the pending scenarios and folds a report bit-identical
// to an uninterrupted run. The corpus fingerprint is recorded too: the
// pinned one, or else the one the spec generates, folded one scenario
// at a time. Checkpoint must not race a concurrent Run of the same
// job: cancel the run first (the rows recorded up to the cancellation
// are kept and captured here).
func (j *Job) Checkpoint(w io.Writer) error {
	ref, err := NewSpecRef(j.spec)
	if err != nil {
		return fmt.Errorf("campaign: checkpoint: %w", err)
	}
	j.mu.Lock()
	ref.Fingerprint = j.expected
	j.mu.Unlock()
	if ref.Fingerprint == "" {
		if ref.Fingerprint, err = foldFingerprint(j.spec); err != nil {
			return fmt.Errorf("campaign: checkpoint: %w", err)
		}
	}
	cp := checkpointFile{
		Version: checkpointVersion,
		Corpus:  ref,
		Config: checkpointCfg{
			Workers: j.cfg.Workers, Seeds: j.cfg.Seeds,
			DurationNS: int64(j.cfg.Duration),
		},
	}
	j.mu.Lock()
	for i, done := range j.done {
		if done {
			cp.Rows = append(cp.Rows, NewWireRow(&j.rows[i]))
		}
	}
	j.mu.Unlock()
	enc := json.NewEncoder(w)
	return enc.Encode(&cp)
}

// RestoreJob rebuilds a checkpointed job from the embedded spec and
// installs the completed rows; the returned Job's next Run processes
// only the pending scenarios. When the checkpoint records a corpus
// fingerprint, the spec must still generate it — checked here, folding
// one scenario at a time — and the fingerprint is pinned, so shards
// computed after the restore are held to it too. The eventual report
// is bit-identical to an uninterrupted run of the original job.
func RestoreJob(r io.Reader) (*Job, error) {
	var cp checkpointFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&cp); err != nil {
		return nil, fmt.Errorf("campaign: restore: %w", err)
	}
	if cp.Version != checkpointVersion {
		return nil, fmt.Errorf("campaign: restore: checkpoint version %d, want %d",
			cp.Version, checkpointVersion)
	}
	spec, err := cp.Corpus.decodeSpec()
	if err != nil {
		return nil, fmt.Errorf("campaign: restore: %w", err)
	}
	j, err := NewSpecJob(spec, Config{
		Workers: cp.Config.Workers, Seeds: cp.Config.Seeds,
		Duration: time.Duration(cp.Config.DurationNS),
	})
	if err != nil {
		return nil, err
	}
	if want := cp.Corpus.Fingerprint; want != "" {
		fp, err := foldFingerprint(j.spec)
		if err != nil {
			return nil, fmt.Errorf("campaign: restore: %w", err)
		}
		if fp != want {
			return nil, fmt.Errorf("campaign: restore: regenerated corpus fingerprint %s does not match checkpoint %s", fp, want)
		}
		j.SetExpectedFingerprint(want)
	}
	rows := make([]ScenarioResult, 0, len(cp.Rows))
	for i := range cp.Rows {
		row, err := cp.Rows[i].Result()
		if err != nil {
			return nil, fmt.Errorf("campaign: restore: %w", err)
		}
		rows = append(rows, row)
	}
	j.mu.Lock()
	_, err = j.installLocked(rows)
	j.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("campaign: restore: %w", err)
	}
	return j, nil
}
