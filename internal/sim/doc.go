// Package sim is a discrete-event simulator for a single CAN bus. It
// exists for two reasons:
//
//   - Cross-validation: simulated response times must never exceed the
//     worst-case bounds of package rta (a property the test suite
//     checks). The paper's claim that analysis replaces test equipment
//     rests on this dominance.
//   - Figure 2: rendering the "complex communication patterns" —
//     jitters, bursts, error frames and retransmissions — that make
//     corner cases invisible to na(i)ve simulation and test.
//
// The simulator models fixed-priority non-preemptive arbitration at frame
// granularity, two controller organisations (fullCAN per-message buffers
// and basicCAN FIFO queues, whose priority inversion the paper alludes to
// with "the controller type influences the order in which messages are
// sent"), sender-buffer overwrite (the paper's message-loss semantics),
// and scheduled error injection with retransmission.
//
// Bus is that model's state machine, and the only one in the repo: Run
// steps it from one transmission boundary to the next, and package
// netsim steps one per CAN bus of a topology from its global event
// heap. RunSeeds fans Run over Monte-Carlo seeds.
package sim
