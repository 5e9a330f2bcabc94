package campaign

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/scenario"
)

// corpusRefVersion guards the spec+fingerprint reference format.
const corpusRefVersion = 1

// CorpusRef is the versioned corpus-regeneration reference shared by
// job checkpoints and the distributed shard wire: a corpus is never
// materialized for transport — the deterministic generator spec is
// shipped and the receiver regenerates what it needs. A checkpoint
// also records the corpus fingerprint, so a drifted or skewed
// generator fails the restore loudly instead of silently resuming rows
// for the wrong population.
type CorpusRef struct {
	// Version is the reference format version (corpusRefVersion).
	Version int `json:"version"`
	// Fingerprint is the corpus content digest the spec must
	// reproduce. Shard requests leave it empty: their corpus identity
	// is established after the fact by folding per-shard partial
	// fingerprints.
	Fingerprint string `json:"fingerprint"`
	// Spec is the encoded scenario.Spec the corpus regenerates from.
	Spec string `json:"spec"`
}

// NewSpecRef captures a corpus by its generation spec alone, with no
// fingerprint. Receivers check their slice with Range and run it with
// RunRange.
func NewSpecRef(spec scenario.Spec) (CorpusRef, error) {
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return CorpusRef{}, fmt.Errorf("campaign: spec ref: %w", err)
	}
	var specBuf bytes.Buffer
	if err := spec.Encode(&specBuf); err != nil {
		return CorpusRef{}, fmt.Errorf("campaign: spec ref: %w", err)
	}
	return CorpusRef{
		Version: corpusRefVersion,
		Spec:    specBuf.String(),
	}, nil
}

// decodeSpec checks the reference version and parses its spec.
func (r CorpusRef) decodeSpec() (scenario.Spec, error) {
	if r.Version != corpusRefVersion {
		return scenario.Spec{}, fmt.Errorf("campaign: corpus ref version %d, want %d", r.Version, corpusRefVersion)
	}
	spec, err := scenario.ParseSpec(strings.NewReader(r.Spec))
	if err != nil {
		return scenario.Spec{}, fmt.Errorf("campaign: corpus ref spec: %w", err)
	}
	return spec, nil
}

// Range decodes the referenced spec and checks that scenarios
// [start, start+count) lie inside its corpus — the worker-side check of
// the shard protocol, made before any scenario is drawn. The embedded
// fingerprint, if any, is not checked here: a range cannot prove
// corpus identity, so verification happens at the coordinator when the
// per-shard partials fold to the full fingerprint.
func (r CorpusRef) Range(start, count int) (scenario.Spec, error) {
	spec, err := r.decodeSpec()
	if err != nil {
		return scenario.Spec{}, err
	}
	if err := scenario.CheckRange(spec, start, count); err != nil {
		return scenario.Spec{}, fmt.Errorf("campaign: corpus ref range: %w", err)
	}
	return spec, nil
}

// foldFingerprint is the fingerprint of the corpus the (defaulted)
// spec generates, folded from scenario leaves one scenario at a time
// so the corpus is never held in memory.
func foldFingerprint(spec scenario.Spec) (string, error) {
	var p scenario.Partial
	for i := 0; i < spec.Count; i++ {
		sc, err := scenario.GenerateOne(spec, i)
		if err != nil {
			return "", err
		}
		p.Add(scenario.Leaf(sc))
	}
	d, err := scenario.FingerprintFrom(spec, p)
	if err != nil {
		return "", err
	}
	return d.String(), nil
}
