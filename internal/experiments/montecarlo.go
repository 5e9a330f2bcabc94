package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/can"
	"repro/internal/report"
	"repro/internal/rta"
	"repro/internal/sim"
)

// MonteCarlo is the scaled-up cross-validation experiment: the
// case-study matrix simulated under many seeds on the batch layer, every
// observed response checked against the analytic worst-case bound. The
// paper's claim that analysis can replace test equipment rests on the
// bound never being beaten, no matter how much (simulated) test time is
// thrown at the bus; this driver throws hardware-saturating amounts.
type MonteCarlo struct {
	// Seeds is the number of simulated runs.
	Seeds int
	// Duration is the simulated span per run.
	Duration time.Duration
	// Controller is the simulated buffer organisation.
	Controller sim.ControllerType
	// Violations counts observed responses beyond the analytic bound
	// (must be zero for fullCAN, the organisation the analysis models).
	Violations int
	// TightestMarginPct is the smallest remaining margin observed, in
	// percent of the bound: how close simulation came to the worst case.
	TightestMarginPct float64
	// TightestMessage is the message with the tightest margin.
	TightestMessage string
	// TotalFrames counts frames delivered across all runs.
	TotalFrames int
}

// MonteCarloParams tunes the run; the zero value is the full experiment.
type MonteCarloParams struct {
	// Seeds is the number of runs (default 64).
	Seeds int
	// Duration is the simulated span per run (default 2s).
	Duration time.Duration
	// Controller selects the buffer organisation (default fullCAN, the
	// organisation whose responses the analysis bounds).
	Controller sim.ControllerType
	// Workers bounds the worker pool (default GOMAXPROCS).
	Workers int
}

// RunMonteCarlo fans the simulations over the batch layer and the bound
// computation over the parallel analyzer, then folds the observations.
func RunMonteCarlo(p MonteCarloParams) (*MonteCarlo, error) {
	if p.Seeds <= 0 {
		p.Seeds = 64
	}
	if p.Duration <= 0 {
		p.Duration = 2 * time.Second
	}
	k := DefaultMatrix()

	// Analytic bounds under the same assumptions the simulation draws
	// from (worst-case stuffing dominates every random draw; no errors).
	rep, err := rta.AnalyzeCached(k.ToRTA(), rta.Config{
		Bus: k.Bus(), Stuffing: can.StuffingWorstCase, DeadlineModel: rta.DeadlineImplicit,
	}, nil, p.Workers)
	if err != nil {
		return nil, err
	}

	specs := make([]sim.MessageSpec, len(k.Messages))
	for i, m := range k.Messages {
		specs[i] = sim.MessageSpec{Name: m.Name, Frame: m.Frame(), Event: m.EventModel(), Node: m.Sender}
	}
	seeds := make([]int64, p.Seeds)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	results, err := sim.RunSeeds(specs, sim.Config{
		Bus: k.Bus(), Duration: p.Duration, Controller: p.Controller,
	}, seeds, p.Workers)
	if err != nil {
		return nil, err
	}

	mc := &MonteCarlo{
		Seeds: p.Seeds, Duration: p.Duration, Controller: p.Controller,
		TightestMarginPct: 100,
	}
	for _, res := range results {
		for _, st := range res.Stats {
			mc.TotalFrames += st.Sent
			r := rep.ByName(st.Name)
			if r == nil || r.WCRT == rta.Unschedulable || st.Sent == 0 {
				continue
			}
			if st.MaxResponse > r.WCRT {
				mc.Violations++
				continue
			}
			margin := 100 * float64(r.WCRT-st.MaxResponse) / float64(r.WCRT)
			if margin < mc.TightestMarginPct {
				mc.TightestMarginPct = margin
				mc.TightestMessage = st.Name
			}
		}
	}
	return mc, nil
}

// Render summarises the validation outcome.
func (m *MonteCarlo) Render() string {
	var b strings.Builder
	b.WriteString("Monte-Carlo cross-validation — simulation vs. worst-case analysis\n\n")
	rows := [][]string{
		{"runs x duration", fmt.Sprintf("%d x %v (%s)", m.Seeds, m.Duration, m.Controller)},
		{"frames delivered", fmt.Sprint(m.TotalFrames)},
		{"bound violations", fmt.Sprint(m.Violations)},
		{"tightest margin", fmt.Sprintf("%.1f%% (%s)", m.TightestMarginPct, m.TightestMessage)},
	}
	b.WriteString(report.Table([]string{"quantity", "value"}, rows))
	if m.Violations == 0 {
		b.WriteString("\nNo simulated response exceeded its analytic bound: the analysis\ndominates simulation, the precondition for replacing test equipment.\n")
	} else {
		b.WriteString("\nWARNING: simulated responses exceeded the analytic bound.\n")
	}
	return b.String()
}
