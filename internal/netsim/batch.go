package netsim

import (
	"fmt"

	"repro/internal/parallel"
)

// RunSeeds fans the same topology over many seeds — the network-level
// Monte-Carlo pattern — and returns one result per seed, in seed order.
// workers <= 0 selects GOMAXPROCS. Every run is self-contained (its
// RNGs derive from its own seed) and results are written by index, so
// they are independent of the worker count and schedule; the first
// failing run (by index) fails the fan.
func RunSeeds(topo *Topology, cfg Config, seeds []int64, workers int) ([]*Result, error) {
	results := make([]*Result, len(seeds))
	errs := make([]error, len(seeds))
	parallel.For(len(seeds), workers, func(_, i int) {
		c := cfg
		c.Seed = seeds[i]
		results[i], errs[i] = Run(topo, c)
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("netsim: seed %d: %w", seeds[i], err)
		}
	}
	return results, nil
}
