package scenario

import (
	"encoding/binary"
	"fmt"

	"repro/internal/contenthash"
)

// tagCorpus is the contenthash domain of the corpus fingerprint
// finalization (FingerprintFrom). Scenario leaf digests use
// tagScenario; keeping the domains disjoint means a leaf can never
// alias a finalized fingerprint.
const tagCorpus = 0x434f525055533162 // "CORPUS1b"

// CheckRange reports whether scenarios [start, start+count) lie inside
// the corpus spec describes. It compares without computing
// start+count, which a hostile range can overflow, so a shard worker
// can refuse a range before it draws or allocates anything.
func CheckRange(spec Spec, start, count int) error {
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return err
	}
	if start < 0 || count < 0 || start > spec.Count || count > spec.Count-start {
		return fmt.Errorf("scenario: range of %d from %d outside corpus of %d",
			count, start, spec.Count)
	}
	return nil
}

// Leaf digests one scenario's canonical block (exactly the bytes
// Corpus.Encode writes for it, index included). Leaves are the unit of
// the partial-fingerprint scheme: because the block embeds the
// scenario's index and derived seed, swapping two scenarios or
// shifting a slice changes the fold.
func Leaf(s *Scenario) contenthash.Digest {
	hw := newHashWriter(tagScenario)
	bw := &errWriter{w: hw}
	encodeScenario(bw, s)
	return hw.Sum()
}

// Partial is the additive fold of a set of scenario Leaf digests: two
// 64-bit lanes summed modulo 2^64 plus the leaf count. Addition is
// associative and commutative, so partials computed independently on
// different workers — one per shard, any shard boundaries — merge in
// any order to the same value as a single pass over the whole corpus.
// That is what lets the coordinator verify a streamed corpus without
// ever materializing it: fold the per-shard partials, finalize with
// FingerprintFrom, compare against the expected fingerprint.
type Partial struct {
	// A and B are the lane sums of the folded leaves.
	A, B uint64
	// N counts folded leaves; a fold is complete when N equals the
	// corpus size.
	N int
}

// Add folds one leaf digest into the partial.
func (p *Partial) Add(d contenthash.Digest) {
	p.A += binary.LittleEndian.Uint64(d[:8])
	p.B += binary.LittleEndian.Uint64(d[8:])
	p.N++
}

// Merge folds another partial (typically one shard's) into p.
func (p *Partial) Merge(q Partial) {
	p.A += q.A
	p.B += q.B
	p.N += q.N
}

// String encodes the partial for the wire: both lane sums as fixed-
// width hex plus the leaf count.
func (p Partial) String() string {
	return fmt.Sprintf("%016x%016x:%d", p.A, p.B, p.N)
}

// ParsePartial decodes the String form.
func ParsePartial(s string) (Partial, error) {
	var p Partial
	if len(s) < 34 || s[32] != ':' {
		return Partial{}, fmt.Errorf("scenario: malformed partial %q", s)
	}
	if _, err := fmt.Sscanf(s[:16], "%016x", &p.A); err != nil {
		return Partial{}, fmt.Errorf("scenario: malformed partial %q", s)
	}
	if _, err := fmt.Sscanf(s[16:32], "%016x", &p.B); err != nil {
		return Partial{}, fmt.Errorf("scenario: malformed partial %q", s)
	}
	if _, err := fmt.Sscanf(s[33:], "%d", &p.N); err != nil || p.N < 0 {
		return Partial{}, fmt.Errorf("scenario: malformed partial %q", s)
	}
	return p, nil
}

// PartialOf folds the leaves of a slice of scenarios.
func PartialOf(scs []Scenario) Partial {
	var p Partial
	for i := range scs {
		p.Add(Leaf(&scs[i]))
	}
	return p
}

// FingerprintFrom finalizes a complete partial fold into the corpus
// fingerprint: the digest of the (defaulted) spec header, the two lane
// sums and the count. For any corpus, FingerprintFrom(spec, fold of
// all leaves) equals Corpus.Fingerprint() — regardless of how the fold
// was partitioned into shards or in what order they merged. The fold
// must cover every scenario exactly once (p.N == spec.Count).
func FingerprintFrom(spec Spec, p Partial) (contenthash.Digest, error) {
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return contenthash.Digest{}, err
	}
	if p.N != spec.Count {
		return contenthash.Digest{}, fmt.Errorf(
			"scenario: partial fold covers %d of %d scenarios", p.N, spec.Count)
	}
	return fingerprintFrom(spec, p), nil
}

// fingerprintFrom is the finalization body; spec must be defaulted and
// p complete.
func fingerprintFrom(spec Spec, p Partial) contenthash.Digest {
	hw := newHashWriter(tagCorpus)
	bw := &errWriter{w: hw}
	encodeSpecHeader(bw, spec)
	hw.h.Word(p.A)
	hw.h.Word(p.B)
	hw.h.Int(int64(p.N))
	return hw.Sum()
}
