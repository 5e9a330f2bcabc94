package scenario

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/whatif"
)

// encode renders a corpus to bytes, failing the test on error.
func encode(t *testing.T, c *Corpus) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}

// TestGenerateDeterministic pins the corpus determinism contract: the
// same (seed, spec) pair encodes byte-identically, different seeds
// differ.
func TestGenerateDeterministic(t *testing.T) {
	spec := Spec{Count: 32, Seed: 7}
	a, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, a), encode(t, b)) {
		t.Fatal("same seed and spec produced different corpora")
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("same seed and spec produced different fingerprints")
	}
	c, err := Generate(Spec{Count: 32, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(encode(t, a), encode(t, c)) {
		t.Fatal("different seeds produced identical corpora")
	}
}

// TestBuildDeterministic rebuilds one scenario twice and checks the
// derived topology and perturbation match exactly.
func TestBuildDeterministic(t *testing.T) {
	corpus, err := Generate(Spec{Count: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range corpus.Scenarios {
		sc := &corpus.Scenarios[i]
		sys1, ch1, err := sc.Build()
		if err != nil {
			t.Fatalf("scenario %d: %v", i, err)
		}
		sys2, ch2, err := sc.Build()
		if err != nil {
			t.Fatalf("scenario %d: %v", i, err)
		}
		topo1, err := netsim.FromSystem(sys1)
		if err != nil {
			t.Fatalf("scenario %d: %v", i, err)
		}
		topo2, err := netsim.FromSystem(sys2)
		if err != nil {
			t.Fatalf("scenario %d: %v", i, err)
		}
		if !reflect.DeepEqual(topo1, topo2) {
			t.Fatalf("scenario %d: rebuild produced a different topology", i)
		}
		if !reflect.DeepEqual(ch1, ch2) {
			t.Fatalf("scenario %d: rebuild produced different changes", i)
		}
	}
}

// TestCorpusBuildsAndAnalyzes materialises a default-parameter corpus
// slice and checks every scenario builds, simulates and accepts its
// perturbation.
func TestCorpusBuildsAndAnalyzes(t *testing.T) {
	corpus, err := Generate(Spec{Count: 24, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range corpus.Scenarios {
		sc := &corpus.Scenarios[i]
		sys, changes, err := sc.Build()
		if err != nil {
			t.Fatalf("scenario %d: build: %v", i, err)
		}
		if len(changes) == 0 {
			t.Fatalf("scenario %d: no perturbation changes", i)
		}
		if _, err := netsim.FromSystem(sys); err != nil {
			t.Fatalf("scenario %d: topology: %v", i, err)
		}
		sess := whatif.NewSystemSession(sys, whatif.Options{Workers: 1})
		if _, err := sess.Analyze(0); err != nil {
			t.Fatalf("scenario %d: analyze: %v", i, err)
		}
		if err := sess.Apply(changes...); err != nil {
			t.Fatalf("scenario %d: apply: %v", i, err)
		}
		if _, err := sess.Analyze(0); err != nil {
			t.Fatalf("scenario %d: perturbed analyze: %v", i, err)
		}
	}
}

// TestParseSpec checks the TOML-subset reader against every key, plus
// its error paths.
func TestParseSpec(t *testing.T) {
	text := `
# corpus spec
count = 100
seed = 9
min_buses = 2
max_buses = 4
min_messages = 10
max_messages = 20
bit_rates = [125000, 500000]
known_jitter_min = 0.2
known_jitter_max = 0.4
id_shuffle_min = 0.3
id_shuffle_max = 0.9
worst_stuffing_probability = 0.5
error_probability = 0.1
tdma_probability = 0.2
shallow_fifo_probability = 0.05
gateway_period_min = "600us"
gateway_period_max = "3ms"
fifo_depth_min = 2
fifo_depth_max = 8
flows_min = 2
flows_max = 2
max_changes = 3
`
	got, err := ParseSpec(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{
		Seed: 9, Count: 100,
		MinBuses: 2, MaxBuses: 4,
		MinMessages: 10, MaxMessages: 20,
		BitRates:       []int{125000, 500000},
		KnownJitterMin: 0.2, KnownJitterMax: 0.4,
		IDShuffleMin: 0.3, IDShuffleMax: 0.9,
		WorstStuffingProbability: 0.5,
		ErrorProbability:         0.1,
		TDMAProbability:          0.2,
		ShallowFIFOProbability:   0.05,
		GatewayPeriodMin:         600 * time.Microsecond,
		GatewayPeriodMax:         3 * time.Millisecond,
		FIFODepthMin:             2, FIFODepthMax: 8,
		FlowsMin: 2, FlowsMax: 2,
		MaxChanges: 3,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseSpec mismatch:\ngot  %+v\nwant %+v", got, want)
	}
	if _, err := ParseSpec(strings.NewReader("no_such_key = 1")); err == nil {
		t.Fatal("unknown key accepted")
	}
	if _, err := ParseSpec(strings.NewReader("count = many")); err == nil {
		t.Fatal("bad value accepted")
	}
	if _, err := ParseSpec(strings.NewReader("count 12")); err == nil {
		t.Fatal("missing '=' accepted")
	}
}

// TestSpecValidate exercises the main rejection paths.
func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{Count: -1},
		{MinBuses: 3, MaxBuses: 2},
		{MinMessages: 50, MaxMessages: 10},
		{BitRates: []int{0}},
		{KnownJitterMin: 0.5, KnownJitterMax: 0.2},
		{ErrorProbability: 1.5},
		{GatewayPeriodMin: 2 * time.Millisecond, GatewayPeriodMax: time.Millisecond},
		{FlowsMin: 3, FlowsMax: 1},
	}
	for i, s := range bad {
		if err := s.WithDefaults().Validate(); err == nil {
			t.Errorf("spec %d: invalid spec accepted: %+v", i, s)
		}
	}
	if err := (Spec{}).WithDefaults().Validate(); err != nil {
		t.Errorf("default spec rejected: %v", err)
	}
}

// TestSpecValidateRejectsNaN: ParseSpec reads "NaN" as a float, and a
// NaN range bound or probability compares false against every limit,
// so Validate used to accept it. Such a spec could not round-trip
// through Encode (NaN is not equal to itself), and the generator would
// draw jitters and priorities from NaN. FuzzParseSpec found it.
func TestSpecValidateRejectsNaN(t *testing.T) {
	for _, key := range []string{
		"known_jitter_min", "known_jitter_max", "id_shuffle_min", "id_shuffle_max",
		"worst_stuffing_probability", "error_probability", "tdma_probability", "shallow_fifo_probability",
	} {
		spec, err := ParseSpec(strings.NewReader("count = 1\n" + key + " = NaN\n"))
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if err := spec.WithDefaults().Validate(); err == nil {
			t.Errorf("%s = NaN accepted", key)
		}
	}
}

// hostileSpecs are spec files the generator could not run correctly,
// or that cost one scenario without bound, keyed by the spec key whose
// limit refuses them.
var hostileSpecs = map[string]string{
	// IDs past 0x7FF: "does not fit standard format" at build time.
	"max_messages": "count = 1\nmin_messages = 1000\nmax_messages = 1000\n",
	// Forwarded IDs 0x10.. run into the generated 0x80..: "share ID".
	"flows_max": "count = 1\nmin_buses = 2\nmax_buses = 2\nmin_messages = 200\nmax_messages = 200\nflows_min = 150\nflows_max = 150\n",
	// Seconds per scenario where 100us takes milliseconds.
	"gateway_period_min": "count = 1\ngateway_period_min = \"1ns\"\ngateway_period_max = \"1ns\"\n",
	// About 80 MB allocated to build one scenario.
	"max_buses": "count = 1\nmin_buses = 2000\nmax_buses = 2000\n",
	// About 220 MB allocated to build one scenario.
	"max_changes": "count = 1\nmax_changes = 2000000\n",
}

// TestSpecLimitsRefuse: each hostile spec parses, and Validate — so
// also every generator entry point — refuses it, naming its key.
func TestSpecLimitsRefuse(t *testing.T) {
	for key, text := range hostileSpecs {
		spec, err := ParseSpec(strings.NewReader(text))
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		err = spec.WithDefaults().Validate()
		if err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("%s: Validate = %v, want an error naming %s", key, err, key)
		}
		if _, err := GenerateOne(spec, 0); err == nil {
			t.Errorf("%s: GenerateOne accepted the spec", key)
		}
	}
}

// boundSpec sits at every generation limit at once.
func boundSpec(seed int64) Spec {
	return Spec{
		Seed: seed, Count: 1,
		MinBuses: BusLimit, MaxBuses: BusLimit,
		MinMessages: MessageLimit, MaxMessages: MessageLimit,
		FlowsMin: FlowLimit, FlowsMax: FlowLimit,
		MaxChanges:       ChangeLimit,
		GatewayPeriodMin: GatewayPeriodFloor, GatewayPeriodMax: GatewayPeriodFloor,
	}
}

// TestSpecAtLimitsBuilds: a scenario drawn at every limit builds and
// analyses over a few corpus seeds — every generated and forwarded
// identifier fits 11 bits and stays distinct.
func TestSpecAtLimitsBuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and analyses three 10,000-message scenarios")
	}
	for seed := int64(1); seed <= 3; seed++ {
		sc, err := GenerateOne(boundSpec(seed), 0)
		if err != nil {
			t.Fatal(err)
		}
		sys, changes, err := sc.Build()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(changes) < 1 {
			t.Fatalf("seed %d: no changes drawn", seed)
		}
		if _, err := sys.Analyze(0); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
