package experiments

import (
	"context"

	"repro/internal/campaign"
	"repro/internal/scenario"
)

// CampaignParams tunes the population-scale study; the zero value runs
// the default 500-scenario corpus.
type CampaignParams struct {
	// Spec parameterises the corpus (scenario.Spec zero value selects
	// the default population).
	Spec scenario.Spec
	// Config parameterises the engine (workers, simulation fan,
	// shared cache).
	Config campaign.Config
	// Quick applies campaign.Quick: a 64-scenario corpus with a halved
	// simulation span where unset — the CI-friendly variant.
	Quick bool
	// Context, when set, bounds the run and carries observability state
	// (an obs trace records the campaign's spans). Nil means Background.
	Context context.Context
}

// RunCampaign drives the sharded campaign engine over the corpus the
// spec describes — the population-scale counterpart of the single
// case-study experiments: instead of one proprietary-matrix
// substitute, a whole randomized population of integrations is
// analysed, cross-validated and perturbed. Scenarios are generated as
// they run, never all at once; the defaulted spec is returned
// alongside the report, so a caller that wants the canonical corpus
// listing generates exactly the corpus that ran.
func RunCampaign(p CampaignParams) (*campaign.Report, scenario.Spec, error) {
	if p.Quick {
		p.Spec, p.Config = campaign.Quick(p.Spec, p.Config)
	}
	ctx := p.Context
	if ctx == nil {
		ctx = context.Background()
	}
	job, err := campaign.NewSpecJob(p.Spec, p.Config)
	if err != nil {
		return nil, scenario.Spec{}, err
	}
	rep, err := job.Run(ctx)
	if err != nil {
		return nil, scenario.Spec{}, err
	}
	return rep, job.Spec(), nil
}
