package sim

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/can"
	"repro/internal/eventmodel"
)

// byteDrawer reads a fuzz input as a stream of bounded integers. Once
// the bytes run out every draw is 0, so any input decodes to a case.
type byteDrawer struct{ b []byte }

func (d *byteDrawer) int63n(n int64) int64 {
	var v uint64
	for k := 0; k < 8 && uint64(1)<<(8*k) < uint64(n) && len(d.b) > 0; k++ {
		v = v<<8 | uint64(d.b[0])
		d.b = d.b[1:]
	}
	return int64(v % uint64(n))
}

func (d *byteDrawer) intn(n int) int { return int(d.int63n(int64(n))) }

// seed draws a full 64-bit value.
func (d *byteDrawer) seed() int64 {
	var v uint64
	for k := 0; k < 8 && len(d.b) > 0; k++ {
		v = v<<8 | uint64(d.b[0])
		d.b = d.b[1:]
	}
	return int64(v)
}

// fuzzCase decodes bytes into one single-bus case: 1-40 messages with
// distinct identifiers on 1-5 nodes, periods from 200 us, jitters from
// 0 to three periods, offsets, either controller, every stuffing mode,
// error instants inside and beyond the horizon, a small or the default
// trace limit, and any seed.
func fuzzCase(data []byte) ([]MessageSpec, Config) {
	d := &byteDrawer{b: data}
	rates := []int{can.Rate125k, can.Rate250k, can.Rate500k, can.Rate1M}
	cfg := Config{
		Bus:         can.Bus{Name: "fuzz", BitRate: rates[d.intn(len(rates))]},
		Duration:    time.Duration(1 + d.int63n(int64(100*ms))),
		Controller:  ControllerType(d.intn(2)),
		Stuffing:    StuffingMode(d.intn(3)),
		RecordTrace: true,
	}
	if d.intn(2) == 0 {
		cfg.TraceLimit = 1 + d.intn(16)
	}
	nodes := 1 + d.intn(5)
	used := map[can.ID]bool{}
	specs := make([]MessageSpec, 1+d.intn(40))
	for i := range specs {
		id := can.ID(d.intn(0x800))
		for used[id] {
			id = (id + 1) % 0x800
		}
		used[id] = true
		format := can.Standard11Bit
		if d.intn(4) == 0 {
			format = can.Extended29Bit
		}
		period := 200*us + time.Duration(d.int63n(int64(50*ms)))
		ev := eventmodel.PeriodicJitter(period, time.Duration(d.int63n(3*int64(period))))
		if ev.Jitter >= ev.Period {
			ev.DMin = period / 2
		}
		specs[i] = MessageSpec{
			Name:   fmt.Sprintf("m%d", i),
			Frame:  can.Frame{ID: id, Format: format, DLC: d.intn(9)},
			Event:  ev,
			Node:   fmt.Sprintf("E%d", d.intn(nodes)),
			Offset: time.Duration(d.int63n(int64(period))),
		}
	}
	cfg.Errors = make([]time.Duration, d.intn(31))
	for i := range cfg.Errors {
		cfg.Errors[i] = time.Duration(d.int63n(int64(cfg.Duration) * 3 / 2))
	}
	cfg.Seed = d.seed()
	return specs, cfg
}

// FuzzSimMatchesSeedEngine runs arbitrary single-bus cases through Run
// and the preserved seed engine: statistics, trace, bus occupation and
// error count must agree bit for bit.
func FuzzSimMatchesSeedEngine(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x02\x00\x40\x00\x01\x01\x03\x01\x09\x01\x00\x10\x00\x00\x20\x00\x08\x00\x40\x00\x00\x07"))
	f.Fuzz(func(t *testing.T, data []byte) {
		specs, cfg := fuzzCase(data)
		got, gerr := Run(specs, cfg)
		want, werr := refRun(specs, cfg)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("errors differ: engine %v, seed engine %v", gerr, werr)
		}
		if gerr != nil {
			return
		}
		if !reflect.DeepEqual(got.Stats, want.Stats) {
			t.Errorf("stats differ:\n engine: %+v\n seed:   %+v", got.Stats, want.Stats)
		}
		if !reflect.DeepEqual(got.Trace, want.Trace) {
			t.Errorf("traces differ (%d vs %d events)", len(got.Trace), len(want.Trace))
		}
		if got.BusBusy != want.BusBusy || got.Errors != want.Errors || got.Duration != want.Duration {
			t.Errorf("bus busy/errors/duration %v/%d/%v, seed engine %v/%d/%v",
				got.BusBusy, got.Errors, got.Duration, want.BusBusy, want.Errors, want.Duration)
		}
	})
}
