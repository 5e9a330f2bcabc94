package netsim

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/sim"
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

// fuzzTopology decodes bytes into a network case. The topology is a
// generated scenario's (FromSystem builds fullCAN buses without error
// schedules); the bytes then move buses to basicCAN with shared nodes,
// pick every stuffing mode, add error instants inside and beyond the
// horizon, and vary duration, seed and trace limit.
func fuzzTopology(t *testing.T, data []byte) (*Topology, Config) {
	d := &byteDrawer{b: data}
	sc, err := scenario.GenerateOne(scenario.Spec{Seed: d.int63n(1 << 40)}, d.intn(1024))
	if err != nil {
		t.Fatal(err)
	}
	sys, _, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	topo, err := FromSystem(sys)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Duration:    time.Duration(1 + d.int63n(int64(100*time.Millisecond))),
		Seed:        d.int63n(1<<62) - 1<<61,
		RecordTrace: d.intn(4) > 0,
	}
	if d.intn(2) == 0 {
		cfg.TraceLimit = 1 + d.intn(16)
	}
	for bi := range topo.Buses {
		b := &topo.Buses[bi]
		b.Controller = sim.ControllerType(d.intn(2))
		b.Stuffing = sim.StuffingMode(d.intn(3))
		if b.Controller == sim.BasicCAN {
			nodes := 1 + d.intn(5)
			for mi := range b.Messages {
				b.Messages[mi].Node = fmt.Sprintf("E%d", d.intn(nodes))
			}
		}
		for n := d.intn(16); n > 0; n-- {
			b.Errors = append(b.Errors, time.Duration(d.int63n(int64(cfg.Duration)*3/2)))
		}
	}
	return topo, cfg
}

// FuzzNetSimMatchesOracle runs arbitrary network cases through Run and
// the preserved engine of oracle_test.go: the whole Result must agree.
func FuzzNetSimMatchesOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x00\x00\x00\x00\x2a\x01\x07\x00\x40\x00\x00\x00\x00\x00\x00\x11\x03\x01\x01\x02\x04\x05\x01\x02\x00\x30"))
	f.Fuzz(func(t *testing.T, data []byte) {
		topo, cfg := fuzzTopology(t, data)
		got, gerr := Run(topo, cfg)
		want, werr := oracleRun(topo, cfg)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("errors differ: engine %v, oracle %v", gerr, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("results differ:\n engine: %+v\n oracle: %+v", got, want)
		}
	})
}
