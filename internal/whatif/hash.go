package whatif

import (
	"repro/internal/can"
	"repro/internal/contenthash"
	"repro/internal/eventmodel"
	"repro/internal/gateway"
	"repro/internal/osek"
	"repro/internal/tdma"
)

// Key-family tags of whole-resource reports. Bus reports use
// tagBusReport (bus.go) for both session kinds, so a system-session bus
// and a standalone BusSession share memoized reports when their inputs
// coincide.
const (
	tagECUReport     = 0x4543555245503162 // "ECUREP1b"
	tagTDMAReport    = 0x54444D4152455031 // "TDMAREP1"
	tagGatewayReport = 0x4757524550313163 // "GWREP11c"
)

// The resource keys absorb every field their analysis reads; raw field
// values are hashed (no default resolution), which at worst costs a miss
// between equivalent spellings, never a wrong hit. Keep them in sync
// with the osek/tdma/gateway analysis inputs.

func hashModel(h *contenthash.Hasher, m eventmodel.Model) {
	h.Int(int64(m.Period))
	h.Int(int64(m.Jitter))
	h.Int(int64(m.DMin))
	h.Bool(m.Sporadic)
}

func ecuKey(cfg osek.Config, tasks []osek.Task) contenthash.Digest {
	h := contenthash.New(tagECUReport)
	h.Int(int64(cfg.Overheads.Activate))
	h.Int(int64(cfg.Overheads.Terminate))
	h.Int(int64(cfg.Overheads.ContextSwitch))
	h.Int(int64(cfg.Horizon))
	h.Int(int64(len(tasks)))
	for _, t := range tasks {
		h.String(t.Name)
		h.Int(int64(t.Priority))
		h.Int(int64(t.WCET))
		h.Int(int64(t.BCET))
		hashModel(&h, t.Event)
		h.Int(int64(t.Kind))
		h.Bool(t.ISR)
		h.Int(int64(t.Deadline))
	}
	return h.Sum()
}

func tdmaKey(msgs []tdma.Message, sched tdma.Schedule, bus can.Bus, stuffing can.Stuffing) contenthash.Digest {
	h := contenthash.New(tagTDMAReport)
	h.String(bus.Name)
	h.Int(int64(bus.BitRate))
	h.Int(int64(stuffing))
	h.Int(int64(len(sched.Slots)))
	for _, sl := range sched.Slots {
		h.String(sl.Owner)
		h.Int(int64(sl.Length))
	}
	h.Int(int64(len(msgs)))
	for _, m := range msgs {
		h.String(m.Name)
		h.Word(uint64(m.Frame.ID))
		h.Int(int64(m.Frame.Format))
		h.Int(int64(m.Frame.DLC))
		hashModel(&h, m.Event)
		h.Int(int64(m.Deadline))
	}
	return h.Sum()
}

func gatewayKey(cfg gateway.Config, flows []gateway.Flow) contenthash.Digest {
	h := contenthash.New(tagGatewayReport)
	h.String(cfg.Name)
	hashModel(&h, cfg.Service)
	h.Int(int64(cfg.Batch))
	h.Int(int64(cfg.Policy))
	h.Int(int64(cfg.QueueDepth))
	h.Int(int64(len(flows)))
	for _, f := range flows {
		h.String(f.Name)
		hashModel(&h, f.Arrival)
	}
	return h.Sum()
}
