package campaign

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
)

// CrossValidate simulates the topology over the seeds 1..seeds and
// folds every run into a netsim.Validation against the analysis bounds.
// It is the per-scenario validation stage of the campaign, exported so
// services can validate a single uploaded system with exactly the
// campaign's checks.
func CrossValidate(sys *core.System, a *core.Analysis, topo *netsim.Topology,
	seeds int, duration time.Duration) (*netsim.Validation, error) {
	v := netsim.NewValidation(sys, a, topo)
	for seed := int64(1); seed <= int64(seeds); seed++ {
		res, err := netsim.Run(topo, netsim.Config{Duration: duration, Seed: seed})
		if err != nil {
			return nil, fmt.Errorf("seed %d: %w", seed, err)
		}
		v.Add(res)
	}
	return v, nil
}
