package rta

import (
	"repro/internal/parallel"
)

// AnalyzeParallel computes the same report as Analyze, fanning the
// per-message analyses across a worker pool. Each message's response
// time is a pure function of the priority-ordered set, so the fan-out is
// embarrassingly parallel and the report is identical to the serial one
// regardless of worker count. workers <= 0 selects GOMAXPROCS.
//
// Use it for large matrices and for the inner loop of sweeps and
// priority searches; for a handful of messages the serial Analyze avoids
// the pool overhead.
func AnalyzeParallel(msgs []Message, cfg Config, workers int) (*Report, error) {
	p, err := prepare(msgs, cfg)
	if err != nil {
		return nil, err
	}
	kernels := make([]*kernel, parallel.Workers(workers))
	parallel.For(len(p.ordered), workers, func(worker, i int) {
		k := kernels[worker]
		if k == nil {
			k = newKernel(p)
			kernels[worker] = k
		}
		p.rep.Results[i] = k.analyzeOne(i, 0)
	})
	return p.rep, nil
}
