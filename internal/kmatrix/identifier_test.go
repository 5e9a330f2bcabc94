package kmatrix_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/can"
	"repro/internal/kmatrix"
	"repro/internal/netsim"
	"repro/internal/rta"
	"repro/internal/sim"
)

// mixedFormatCSV holds a standard 0x1 and an extended 0x1: one number,
// two identifiers on the wire.
const mixedFormatCSV = "#bus,pt,500000\n" +
	"name,id,format,dlc,period_us,jitter_us,jitter_known,deadline_us,sender,receivers\n" +
	"Std,0x1,standard,8,10000,0,false,0,ECU1,ECU2\n" +
	"Ext,0x1,extended,8,10000,0,false,0,ECU2,ECU1\n"

// TestMixedFormatIdentifiers: duplicate checks key by format and ID.
// A matrix with a standard and an extended 0x1 decodes and validates,
// and the analysis and both simulators accept it; two standard 0x1
// frames are still refused by all four.
func TestMixedFormatIdentifiers(t *testing.T) {
	k, err := kmatrix.DecodeCSV(strings.NewReader(mixedFormatCSV))
	if err != nil {
		t.Fatalf("DecodeCSV: %v", err)
	}
	specs := make([]sim.MessageSpec, len(k.Messages))
	for i, m := range k.Messages {
		specs[i] = sim.MessageSpec{Name: m.Name, Frame: m.Frame(), Event: m.EventModel(), Node: m.Sender}
	}
	check := func(k *kmatrix.KMatrix, specs []sim.MessageSpec) map[string]error {
		topo := &netsim.Topology{Buses: []netsim.BusSpec{{Name: k.BusName, Bus: k.Bus(), Messages: specs}}}
		errs := map[string]error{"Validate": k.Validate()}
		_, errs["rta.Analyze"] = rta.Analyze(k.ToRTA(), rta.Config{Bus: k.Bus()})
		_, errs["sim.Run"] = sim.Run(specs, sim.Config{Bus: k.Bus(), Duration: 50 * time.Millisecond})
		_, errs["netsim.Run"] = netsim.Run(topo, netsim.Config{Duration: 50 * time.Millisecond})
		return errs
	}
	for name, err := range check(k, specs) {
		if err != nil {
			t.Errorf("%s refused a standard and an extended 0x1: %v", name, err)
		}
	}

	k.Messages[1].Extended = false
	specs[1].Frame.Format = can.Standard11Bit
	for name, err := range check(k, specs) {
		if err == nil {
			t.Errorf("%s accepted two standard 0x1 frames", name)
		}
	}
}
