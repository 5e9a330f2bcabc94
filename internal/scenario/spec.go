package scenario

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/can"
)

// Spec parameterises a scenario corpus. The zero value selects the
// default corpus (WithDefaults); probabilities may be set negative to
// mean "never" since 0 selects the default.
type Spec struct {
	// Seed drives all randomness of the corpus; equal (Seed, Spec)
	// pairs generate byte-identical corpora.
	Seed int64
	// Count is the number of scenarios (default 500).
	Count int

	// MinBuses and MaxBuses bound the CAN-bus chain length
	// (defaults 1 and 3). Consecutive buses are bridged by gateways.
	MinBuses, MaxBuses int
	// MinMessages and MaxMessages bound the generated rows per bus
	// (defaults 24 and 72).
	MinMessages, MaxMessages int
	// BitRates are the bus speeds drawn from (default 250k and 500k).
	BitRates []int

	// KnownJitterMin/Max bound the supplier-knowledge fraction of each
	// generated K-Matrix (defaults 0.10 and 0.50).
	KnownJitterMin, KnownJitterMax float64
	// IDShuffleMin/Max bound the priority-noise strength (defaults 0.2
	// and 1.0) — how far the grown ID assignment strays from
	// rate-monotonic.
	IDShuffleMin, IDShuffleMax float64

	// WorstStuffingProbability is the chance a scenario is analysed and
	// simulated under worst-case bit stuffing (default 0.7; negative
	// means never).
	WorstStuffingProbability float64
	// ErrorProbability is the chance a scenario carries the
	// Punnekkat-style burst error model (default 0.25; negative means
	// never).
	ErrorProbability float64
	// TDMAProbability is the chance a scenario ends in a time-triggered
	// backbone fed through a per-message-buffer gateway (default 0.25;
	// negative means never).
	TDMAProbability float64
	// ShallowFIFOProbability is the chance a shared-FIFO gateway is
	// deliberately under-dimensioned to depth 1 — the predicted-loss
	// direction of the cross-validation (default 0.1; negative means
	// never).
	ShallowFIFOProbability float64

	// GatewayPeriodMin/Max bound the drawn forwarding service periods
	// (defaults 500us and 2ms, quantised to 100us).
	GatewayPeriodMin, GatewayPeriodMax time.Duration
	// FIFODepthMin/Max bound dimensioned shared-FIFO depths (defaults 4
	// and 16).
	FIFODepthMin, FIFODepthMax int
	// FlowsMin/Max bound the message streams forwarded per gateway
	// (defaults 1 and 3).
	FlowsMin, FlowsMax int

	// MaxChanges bounds the per-scenario what-if perturbation length
	// (default 4; at least 1 change is always drawn).
	MaxChanges int
}

// Generation limits. A spec arrives as untrusted input — in shard
// requests, service uploads and campaign spec files — so Validate
// refuses what the generator cannot draw correctly and what would make
// one scenario cost without bound. Each names the spec key it bounds.
const (
	// BusLimit bounds max_buses. A scenario at every limit carries
	// about 10,000 messages; building it allocates about 9 MB.
	BusLimit = 16
	// MessageLimit bounds max_messages. The generator numbers a bus's
	// rows from a first identifier of at most 0x9F in steps of at most
	// 3, and the last must still fit the 11-bit standard format (0x7FF).
	MessageLimit = (0x7FF-0x9F)/3 + 1
	// FlowLimit bounds flows_max. Forwarded copies take identifiers
	// from 0x10 upward on the destination bus and must stay below the
	// generator's lowest identifier, 0x80.
	FlowLimit = 0x80 - 0x10
	// ChangeLimit bounds max_changes, the what-if edits each scenario
	// replays, and re-analyses after, one at a time.
	ChangeLimit = 256
	// GatewayPeriodFloor bounds gateway_period_min from below: it is
	// the quantum the generator draws service periods in. Below it the
	// simulated gateway activations multiply: at 1ns one small scenario
	// simulates for seconds where 100us takes milliseconds.
	GatewayPeriodFloor = 100 * time.Microsecond
)

// WithDefaults fills zero fields with the default corpus parameters.
func (s Spec) WithDefaults() Spec {
	if s.Count == 0 {
		s.Count = 500
	}
	if s.MinBuses == 0 {
		s.MinBuses = 1
	}
	if s.MaxBuses == 0 {
		s.MaxBuses = 3
	}
	if s.MinMessages == 0 {
		s.MinMessages = 24
	}
	if s.MaxMessages == 0 {
		s.MaxMessages = 72
	}
	if len(s.BitRates) == 0 {
		s.BitRates = []int{can.Rate250k, can.Rate500k}
	}
	if s.KnownJitterMin == 0 {
		s.KnownJitterMin = 0.10
	}
	if s.KnownJitterMax == 0 {
		s.KnownJitterMax = 0.50
	}
	if s.IDShuffleMin == 0 {
		s.IDShuffleMin = 0.2
	}
	if s.IDShuffleMax == 0 {
		s.IDShuffleMax = 1.0
	}
	if s.WorstStuffingProbability == 0 {
		s.WorstStuffingProbability = 0.7
	}
	if s.ErrorProbability == 0 {
		s.ErrorProbability = 0.25
	}
	if s.TDMAProbability == 0 {
		s.TDMAProbability = 0.25
	}
	if s.ShallowFIFOProbability == 0 {
		s.ShallowFIFOProbability = 0.1
	}
	if s.GatewayPeriodMin == 0 {
		s.GatewayPeriodMin = 500 * time.Microsecond
	}
	if s.GatewayPeriodMax == 0 {
		s.GatewayPeriodMax = 2 * time.Millisecond
	}
	if s.FIFODepthMin == 0 {
		s.FIFODepthMin = 4
	}
	if s.FIFODepthMax == 0 {
		s.FIFODepthMax = 16
	}
	if s.FlowsMin == 0 {
		s.FlowsMin = 1
	}
	if s.FlowsMax == 0 {
		s.FlowsMax = 3
	}
	if s.MaxChanges == 0 {
		s.MaxChanges = 4
	}
	return s
}

// Validate reports whether the (defaulted) spec describes a generable
// corpus.
func (s Spec) Validate() error {
	if s.Count <= 0 {
		return fmt.Errorf("scenario: count %d must be positive", s.Count)
	}
	if s.MinBuses < 1 || s.MaxBuses < s.MinBuses {
		return fmt.Errorf("scenario: bus range [%d, %d] invalid", s.MinBuses, s.MaxBuses)
	}
	if s.MaxBuses > BusLimit {
		return fmt.Errorf("scenario: max_buses %d exceeds the limit %d", s.MaxBuses, BusLimit)
	}
	if s.MinMessages < 4 || s.MaxMessages < s.MinMessages {
		return fmt.Errorf("scenario: message range [%d, %d] invalid (min 4)",
			s.MinMessages, s.MaxMessages)
	}
	if s.MaxMessages > MessageLimit {
		return fmt.Errorf("scenario: max_messages %d exceeds the limit %d (11-bit identifiers per bus)",
			s.MaxMessages, MessageLimit)
	}
	for _, r := range s.BitRates {
		if r <= 0 {
			return fmt.Errorf("scenario: non-positive bit rate %d", r)
		}
	}
	type frange struct {
		name     string
		lo, hi   float64
		min, max float64
	}
	for _, fr := range []frange{
		{"known-jitter", s.KnownJitterMin, s.KnownJitterMax, 0.01, 1},
		{"id-shuffle", s.IDShuffleMin, s.IDShuffleMax, 0.01, 2},
	} {
		if fr.lo < fr.min || fr.hi > fr.max || fr.hi < fr.lo {
			return fmt.Errorf("scenario: %s range [%g, %g] outside [%g, %g]",
				fr.name, fr.lo, fr.hi, fr.min, fr.max)
		}
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"worst-stuffing", s.WorstStuffingProbability},
		{"error", s.ErrorProbability},
		{"tdma", s.TDMAProbability},
		{"shallow-fifo", s.ShallowFIFOProbability},
	} {
		if p.v > 1 {
			return fmt.Errorf("scenario: %s probability %g exceeds 1", p.name, p.v)
		}
	}
	if s.GatewayPeriodMin <= 0 || s.GatewayPeriodMax < s.GatewayPeriodMin {
		return fmt.Errorf("scenario: gateway period range [%v, %v] invalid",
			s.GatewayPeriodMin, s.GatewayPeriodMax)
	}
	if s.GatewayPeriodMin < GatewayPeriodFloor {
		return fmt.Errorf("scenario: gateway_period_min %v is below the floor %v",
			s.GatewayPeriodMin, GatewayPeriodFloor)
	}
	if s.FIFODepthMin < 1 || s.FIFODepthMax < s.FIFODepthMin {
		return fmt.Errorf("scenario: FIFO depth range [%d, %d] invalid",
			s.FIFODepthMin, s.FIFODepthMax)
	}
	if s.FlowsMin < 1 || s.FlowsMax < s.FlowsMin {
		return fmt.Errorf("scenario: flow range [%d, %d] invalid", s.FlowsMin, s.FlowsMax)
	}
	if s.FlowsMax > FlowLimit {
		return fmt.Errorf("scenario: flows_max %d exceeds the limit %d (forwarded identifiers below 0x80)",
			s.FlowsMax, FlowLimit)
	}
	if s.MaxChanges < 1 {
		return fmt.Errorf("scenario: max changes %d must be positive", s.MaxChanges)
	}
	if s.MaxChanges > ChangeLimit {
		return fmt.Errorf("scenario: max_changes %d exceeds the limit %d", s.MaxChanges, ChangeLimit)
	}
	return nil
}

// Encode writes the spec in the `key = value` format ParseSpec reads:
// every key is emitted (defaulted specs round-trip exactly), so an
// encoded spec is a self-contained wire representation of the corpus
// parameters — the upload format of the analysis service.
func (s Spec) Encode(w io.Writer) error {
	rates := make([]string, len(s.BitRates))
	for i, r := range s.BitRates {
		rates[i] = strconv.Itoa(r)
	}
	_, err := fmt.Fprintf(w, `seed = %d
count = %d
min_buses = %d
max_buses = %d
min_messages = %d
max_messages = %d
bit_rates = [%s]
known_jitter_min = %g
known_jitter_max = %g
id_shuffle_min = %g
id_shuffle_max = %g
worst_stuffing_probability = %g
error_probability = %g
tdma_probability = %g
shallow_fifo_probability = %g
gateway_period_min = "%v"
gateway_period_max = "%v"
fifo_depth_min = %d
fifo_depth_max = %d
flows_min = %d
flows_max = %d
max_changes = %d
`,
		s.Seed, s.Count, s.MinBuses, s.MaxBuses, s.MinMessages, s.MaxMessages,
		strings.Join(rates, ", "),
		s.KnownJitterMin, s.KnownJitterMax, s.IDShuffleMin, s.IDShuffleMax,
		s.WorstStuffingProbability, s.ErrorProbability, s.TDMAProbability,
		s.ShallowFIFOProbability,
		s.GatewayPeriodMin, s.GatewayPeriodMax,
		s.FIFODepthMin, s.FIFODepthMax, s.FlowsMin, s.FlowsMax, s.MaxChanges)
	return err
}

// ParseSpec reads a corpus spec file: a TOML subset of `key = value`
// lines with `#` comments. Values are integers, floats, quoted duration
// strings ("500us"), or `[a, b]` integer arrays (bit_rates). Unknown
// keys are errors, so typos fail loudly. Keys mirror the Spec fields in
// snake_case, e.g.:
//
//	count = 500
//	seed = 7
//	max_buses = 3
//	tdma_probability = 0.25
//	bit_rates = [250000, 500000]
//	gateway_period_max = "2ms"
func ParseSpec(r io.Reader) (Spec, error) {
	var s Spec
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		text = strings.TrimSpace(text)
		if text == "" {
			continue
		}
		key, value, ok := strings.Cut(text, "=")
		if !ok {
			return Spec{}, fmt.Errorf("scenario: spec line %d: want key = value", line)
		}
		key = strings.TrimSpace(key)
		value = strings.TrimSpace(value)
		if err := s.set(key, value); err != nil {
			return Spec{}, fmt.Errorf("scenario: spec line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return Spec{}, fmt.Errorf("scenario: spec: %w", err)
	}
	return s, nil
}

// set assigns one spec key from its textual value.
func (s *Spec) set(key, value string) error {
	parseInt := func() (int, error) {
		n, err := strconv.Atoi(value)
		if err != nil {
			return 0, fmt.Errorf("key %q: %w", key, err)
		}
		return n, nil
	}
	parseFloat := func() (float64, error) {
		f, err := strconv.ParseFloat(value, 64)
		if err != nil {
			return 0, fmt.Errorf("key %q: %w", key, err)
		}
		return f, nil
	}
	parseDuration := func() (time.Duration, error) {
		unquoted := strings.Trim(value, `"`)
		d, err := time.ParseDuration(unquoted)
		if err != nil {
			return 0, fmt.Errorf("key %q: %w", key, err)
		}
		return d, nil
	}
	var err error
	switch key {
	case "seed":
		var n int
		if n, err = parseInt(); err == nil {
			s.Seed = int64(n)
		}
	case "count":
		s.Count, err = parseInt()
	case "min_buses":
		s.MinBuses, err = parseInt()
	case "max_buses":
		s.MaxBuses, err = parseInt()
	case "min_messages":
		s.MinMessages, err = parseInt()
	case "max_messages":
		s.MaxMessages, err = parseInt()
	case "bit_rates":
		inner := strings.TrimSpace(value)
		if !strings.HasPrefix(inner, "[") || !strings.HasSuffix(inner, "]") {
			return fmt.Errorf("key %q: want [a, b, ...]", key)
		}
		for _, part := range strings.Split(strings.Trim(inner, "[]"), ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			n, perr := strconv.Atoi(part)
			if perr != nil {
				return fmt.Errorf("key %q: %w", key, perr)
			}
			s.BitRates = append(s.BitRates, n)
		}
	case "known_jitter_min":
		s.KnownJitterMin, err = parseFloat()
	case "known_jitter_max":
		s.KnownJitterMax, err = parseFloat()
	case "id_shuffle_min":
		s.IDShuffleMin, err = parseFloat()
	case "id_shuffle_max":
		s.IDShuffleMax, err = parseFloat()
	case "worst_stuffing_probability":
		s.WorstStuffingProbability, err = parseFloat()
	case "error_probability":
		s.ErrorProbability, err = parseFloat()
	case "tdma_probability":
		s.TDMAProbability, err = parseFloat()
	case "shallow_fifo_probability":
		s.ShallowFIFOProbability, err = parseFloat()
	case "gateway_period_min":
		s.GatewayPeriodMin, err = parseDuration()
	case "gateway_period_max":
		s.GatewayPeriodMax, err = parseDuration()
	case "fifo_depth_min":
		s.FIFODepthMin, err = parseInt()
	case "fifo_depth_max":
		s.FIFODepthMax, err = parseInt()
	case "flows_min":
		s.FlowsMin, err = parseInt()
	case "flows_max":
		s.FlowsMax, err = parseInt()
	case "max_changes":
		s.MaxChanges, err = parseInt()
	default:
		return fmt.Errorf("unknown key %q", key)
	}
	return err
}
