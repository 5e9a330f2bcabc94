package scenario

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// TestGenerateOneSlicesConcatenateToFullCorpus is the property behind
// the streamed distributed protocol: for random specs and random shard
// boundaries, worker-style generation (each index on its own)
// concatenates to exactly the corpus a coordinator would have
// generated — byte-identical under the canonical encoding — and the
// per-slice partial fingerprints fold to the corpus fingerprint.
func TestGenerateOneSlicesConcatenateToFullCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		spec := Spec{Seed: rng.Int63n(1 << 30), Count: 1 + rng.Intn(40)}
		full, err := Generate(spec)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		var concat []Scenario
		var fold Partial
		for start := 0; start < spec.Count; {
			count := 1 + rng.Intn(spec.Count-start)
			if err := CheckRange(spec, start, count); err != nil {
				t.Fatalf("trial %d: range [%d,%d): %v", trial, start, start+count, err)
			}
			var slice Partial
			for i := start; i < start+count; i++ {
				sc, err := GenerateOne(spec, i)
				if err != nil {
					t.Fatal(err)
				}
				concat = append(concat, *sc)
				slice.Add(Leaf(sc))
			}
			fold.Merge(slice)
			start += count
		}

		var wantBuf, gotBuf bytes.Buffer
		if err := full.Encode(&wantBuf); err != nil {
			t.Fatal(err)
		}
		rebuilt := &Corpus{Spec: full.Spec, Scenarios: concat}
		if err := rebuilt.Encode(&gotBuf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wantBuf.Bytes(), gotBuf.Bytes()) {
			t.Fatalf("trial %d (seed %d count %d): concatenated slices differ from full corpus",
				trial, spec.Seed, spec.Count)
		}

		d, err := FingerprintFrom(spec, fold)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if d != full.Fingerprint() {
			t.Fatalf("trial %d: folded fingerprint %s != corpus fingerprint %s",
				trial, d, full.Fingerprint())
		}
	}
}

// TestCheckRangeRejectsOverflowingRange pins the range check to
// arithmetic that cannot wrap: start+count overflows for these ranges,
// and a wrapped sum once passed the bound (returning scenario index
// math.MaxInt from a 10-scenario corpus).
func TestCheckRangeRejectsOverflowingRange(t *testing.T) {
	spec := Spec{Seed: 1, Count: 10}
	for _, r := range [][2]int{{math.MaxInt, 1}, {1, math.MaxInt}, {math.MaxInt, math.MaxInt}, {11, 0}, {3, 8}, {-1, 2}, {0, -1}} {
		if err := CheckRange(spec, r[0], r[1]); err == nil {
			t.Errorf("range of %d from %d accepted", r[1], r[0])
		}
	}
	if err := CheckRange(spec, 10, 0); err != nil {
		t.Fatalf("empty range at the end: %v", err)
	}
}

// TestPartialFoldIsOrderAndShardingFree: the fold is additive, so any
// merge order and any partition give the same partial.
func TestPartialFoldIsOrderAndShardingFree(t *testing.T) {
	spec := Spec{Seed: 5, Count: 9}
	corpus, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := PartialOf(corpus.Scenarios)

	// Reverse-order per-scenario fold.
	var rev Partial
	for i := len(corpus.Scenarios) - 1; i >= 0; i-- {
		rev.Add(Leaf(&corpus.Scenarios[i]))
	}
	if rev != want {
		t.Fatalf("reverse fold %v != forward fold %v", rev, want)
	}

	// Uneven shards merged out of order.
	var merged Partial
	for _, r := range [][2]int{{4, 5}, {0, 4}} {
		merged.Merge(PartialOf(corpus.Scenarios[r[0] : r[0]+r[1]]))
	}
	if merged != want {
		t.Fatalf("sharded fold %v != forward fold %v", merged, want)
	}
}

// TestTamperedSliceRejectedByFold: a slice whose content drifted from
// the spec (a worker with a skewed generator, or a corrupted wire)
// folds to a different fingerprint than the true corpus.
func TestTamperedSliceRejectedByFold(t *testing.T) {
	spec := Spec{Seed: 3, Count: 8}
	corpus, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}

	a := corpus.Scenarios[:4]
	b := append([]Scenario(nil), corpus.Scenarios[4:]...)
	// Tamper with one scenario of the second slice.
	b[1].Seed++

	var fold Partial
	fold.Merge(PartialOf(a))
	fold.Merge(PartialOf(b))
	d, err := FingerprintFrom(spec, fold)
	if err != nil {
		t.Fatal(err)
	}
	if d == corpus.Fingerprint() {
		t.Fatal("tampered slice folded to the true corpus fingerprint")
	}

	// Swapping two scenarios (indices travel in the leaves) must also
	// change the fold.
	c := append([]Scenario(nil), corpus.Scenarios...)
	c[2], c[5] = c[5], c[2]
	c[2].Index, c[5].Index = 2, 5
	if sd, _ := FingerprintFrom(spec, PartialOf(c)); sd == corpus.Fingerprint() {
		t.Fatal("swapped scenarios folded to the true corpus fingerprint")
	}

	// An incomplete fold is refused outright.
	if _, err := FingerprintFrom(spec, PartialOf(a)); err == nil {
		t.Fatal("incomplete fold finalized without error")
	}
}

// TestPartialWireRoundTrip pins the String/ParsePartial encoding.
func TestPartialWireRoundTrip(t *testing.T) {
	spec := Spec{Seed: 9, Count: 6}
	corpus, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	p := PartialOf(corpus.Scenarios)
	got, err := ParsePartial(p.String())
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Fatalf("round trip %v != %v", got, p)
	}
	for _, bad := range []string{"", "xyz", "0123:4", p.String()[:20]} {
		if _, err := ParsePartial(bad); err == nil {
			t.Fatalf("ParsePartial(%q) accepted garbage", bad)
		}
	}
}
