// Package core is the compositional system-level analysis engine — the
// SymTA/S methodology itself (Richter 2005, Jersak 2004): local
// schedulability analyses per resource, coupled by standard event models
// propagated along the communication flows until a global fixpoint is
// reached.
//
// A System holds CAN buses (analysed by package rta) and ECUs (analysed
// by package osek), plus links: "the output of task T activates message
// M", "the arrival of message M activates gateway task G", and so on.
// Analysis alternates local analyses with event-model propagation — each
// element's output model (input model plus response-time jitter) becomes
// the activation model of its successors. Jitters grow monotonically, so
// iteration either converges or visibly diverges; divergence is reported,
// not hidden.
//
// End-to-end paths (sensor task -> message -> gateway -> message ->
// actuator task) are bounded by the sum of the from-arrival worst-case
// responses along the path, the standard compositional latency bound.
//
// The fixpoint exists once. Analyze runs it over the direct local
// analyses; AnalyzeWith runs it over any Analyzers, which is how the
// incremental what-if sessions (package whatif) put their memo under
// each local analysis, and Load reloads edited resource inputs into a
// System in place between runs. Propagation writes the converged
// activation models into the analysed System, and the network
// simulator (package netsim) simulates a System built or analysed this
// way, so one wiring drives both.
//
// This is the source paper's Section 5: integration analysed at the
// network level — ECUs, buses and gateways coupled by the event-model
// interfaces OEMs and suppliers exchange.
package core
