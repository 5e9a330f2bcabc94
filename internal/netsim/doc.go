// Package netsim is a discrete-event simulator for a whole network
// topology: multiple CAN buses, optional TDMA segments, and
// store-and-forward gateways between them — the holistic counterpart to
// the compositional analysis of package core.
//
// The paper's central claim is that OEM/supplier integration must be
// analysed at the network level: event models propagated across ECUs,
// buses and gateways. Package core reproduces that analytically
// (fixpoint over local analyses); netsim reproduces it operationally,
// so the two can be cross-validated — every simulated end-to-end path
// latency must stay below its compositional bound, every observed
// gateway backlog below the arrival-curve backlog bound, and message
// loss may occur only where the analysis predicted a queue too shallow.
// Validation is that check, the one fold every caller shares: campaign
// scenarios, shard workers, the service's simulate route and the
// network-validation experiment.
//
// Architecture: each CAN bus is one state machine of package sim
// (sim.Bus: release calendar, arbitration, transmission start); a
// single global event heap steps the buses and merges their release
// wake-ups and transmission ends with gateway service activations and
// TDMA slot openings. netsim keeps only what is network-specific: the
// event heap, each bus's busy and in-flight state, origin instants for
// path tracing, gateway-fed streams, TDMA segments and gateways. The run is
// single-threaded and every tie at an instant is broken by a fixed
// (kind, component, payload) order, so one seed always produces one
// result bit for bit; parallelism happens across seeds (RunSeeds), not
// inside a run.
package netsim
