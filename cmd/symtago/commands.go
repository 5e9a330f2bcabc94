package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/can"
	"repro/internal/experiments"
	"repro/internal/kmatrix"
	"repro/internal/load"
	"repro/internal/optimize"
	"repro/internal/report"
	"repro/internal/rta"
	"repro/internal/sensitivity"
	"repro/internal/sim"
)

// loadMatrix reads the CSV at path, or returns the built-in case-study
// matrix when path is empty.
func loadMatrix(path string) (*kmatrix.KMatrix, error) {
	if path == "" {
		return experiments.DefaultMatrix(), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return kmatrix.DecodeCSV(f)
}

// scenarioConfig maps the -scenario flag to an analysis configuration.
func scenarioConfig(name string) (rta.Config, error) {
	switch name {
	case "best":
		return experiments.BestCaseAnalysis(), nil
	case "worst":
		return experiments.WorstCaseAnalysis(), nil
	default:
		return rta.Config{}, usageErrf("unknown scenario %q (want best or worst)", name)
	}
}

// parseController maps the -controller flag to the simulated buffer
// organisation.
func parseController(name string) (sim.ControllerType, error) {
	switch name {
	case "full":
		return sim.FullCAN, nil
	case "basic":
		return sim.BasicCAN, nil
	default:
		return sim.FullCAN, usageErrf("unknown controller %q (want full or basic)", name)
	}
}

func cmdLoad(args []string) error {
	fs := newFlagSet("load")
	path := kmatrixFlag(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	k, err := loadMatrix(*path)
	if err != nil {
		return err
	}
	fmt.Printf("bus %s, %d messages\n\n", k.BusName, len(k.Messages))
	fmt.Println("nominal stuffing:")
	fmt.Print(load.FromKMatrix(k, can.StuffingNominal))
	fmt.Println("\nworst-case stuffing:")
	fmt.Print(load.FromKMatrix(k, can.StuffingWorstCase))
	return nil
}

func cmdAnalyze(args []string) error {
	fs := newFlagSet("analyze")
	path := kmatrixFlag(fs)
	scenario := scenarioFlag(fs)
	scale := fs.Float64("jitter-scale", 0, "set all jitters to this fraction of the period")
	onlyUnknown := fs.Bool("only-unknown", false, "scale only assumed jitters")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if !(*scale >= 0) {
		return badValue("analyze", "jitter-scale", *scale, "a scale of 0 or more")
	}
	cfg, err := scenarioConfig(*scenario)
	if err != nil {
		return err
	}
	k, err := loadMatrix(*path)
	if err != nil {
		return err
	}
	cfg.Bus = k.Bus()
	if *scale > 0 {
		k = k.WithJitterScale(*scale, *onlyUnknown)
	}
	rep, err := rta.Analyze(k.ToRTA(), cfg)
	if err != nil {
		return err
	}
	rows := make([][]string, 0, len(rep.Results))
	for _, r := range rep.Results {
		wcrt := "unbounded"
		if r.WCRT != rta.Unschedulable {
			wcrt = r.WCRT.String()
		}
		ok := "MISS"
		if r.Schedulable {
			ok = "ok"
		}
		rows = append(rows, []string{
			r.Message.Name, r.Message.Frame.ID.String(),
			r.Message.Event.Period.String(), r.Message.Event.Jitter.String(),
			r.C.String(), wcrt, r.Deadline.String(), ok,
		})
	}
	fmt.Print(report.Table(
		[]string{"message", "id", "period", "jitter", "C", "WCRT", "deadline", "status"}, rows))
	fmt.Printf("\nutilisation %.1f%%, %d of %d messages miss (%s scenario)\n",
		100*rep.Utilization, rep.MissCount(), len(rep.Results), *scenario)
	return nil
}

func cmdSensitivity(args []string) error {
	fs := newFlagSet("sensitivity")
	path := kmatrixFlag(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	k, err := loadMatrix(*path)
	if err != nil {
		return err
	}
	cfg := sensitivity.SweepConfig{Analysis: rta.Config{
		Stuffing:      can.StuffingWorstCase,
		DeadlineModel: rta.DeadlineImplicit,
	}}
	res, err := sensitivity.Sweep(k, cfg)
	if err != nil {
		return err
	}
	classes := res.Classification(sensitivity.ClassifyConfig{})
	rows := make([][]string, 0, len(res.Curves))
	for i := range res.Curves {
		c := &res.Curves[i]
		growth := fmt.Sprintf("%.2f", c.Growth())
		rows = append(rows, []string{
			c.Message, c.Period.String(),
			c.Points[0].Delay.String(),
			c.Points[len(c.Points)-1].Delay.String(),
			growth, classes[c.Message].String(),
		})
	}
	fmt.Print(report.Table(
		[]string{"message", "period", "delay@0%", "delay@60%", "growth", "class"}, rows))
	counts := res.ClassCounts(sensitivity.ClassifyConfig{})
	fmt.Printf("\nrobust %d, medium %d, sensitive %d, very sensitive %d\n",
		counts[sensitivity.Robust], counts[sensitivity.Medium],
		counts[sensitivity.Sensitive], counts[sensitivity.VerySensitive])
	return nil
}

func cmdLoss(args []string) error {
	fs := newFlagSet("loss")
	path := kmatrixFlag(fs)
	scenario := scenarioFlag(fs)
	csv := fs.Bool("csv", false, "emit CSV instead of a table")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	cfg, err := scenarioConfig(*scenario)
	if err != nil {
		return err
	}
	k, err := loadMatrix(*path)
	if err != nil {
		return err
	}
	curve, err := sensitivity.Loss(k, sensitivity.SweepConfig{Analysis: cfg})
	if err != nil {
		return err
	}
	if *csv {
		s := report.Series{Name: *scenario}
		var xs []float64
		for _, p := range curve {
			xs = append(xs, p.Scale*100)
			s.Y = append(s.Y, p.MissRatio*100)
		}
		return report.WriteSeriesCSV(os.Stdout, "jitter_percent", xs, []report.Series{s})
	}
	rows := make([][]string, 0, len(curve))
	for _, p := range curve {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f%%", p.Scale*100),
			fmt.Sprintf("%.1f%%", p.MissRatio*100),
			fmt.Sprint(len(p.Missed)),
		})
	}
	fmt.Print(report.Table([]string{"jitter", "miss ratio", "messages lost"}, rows))
	return nil
}

func cmdOptimize(args []string) error {
	fs := newFlagSet("optimize")
	path := kmatrixFlag(fs)
	seed := fs.Int64("seed", 1, "GA seed")
	generations := fs.Int("generations", 0, "GA generations (0 = default)")
	out := fs.String("out", "", "write the optimized K-Matrix CSV here")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *generations < 0 {
		return badValue("optimize", "generations", *generations, "0 (the default) or more")
	}
	k, err := loadMatrix(*path)
	if err != nil {
		return err
	}
	cfg := optimize.Config{
		Seed:            *seed,
		Generations:     *generations,
		EvalScales:      []float64{0, 0.125, 0.25},
		RobustnessScale: 0.40,
		Analysis:        experiments.WorstCaseAnalysis(),
		StopOnZeroMiss:  true,
		MinGenerations:  15,
	}
	res, err := optimize.Run(k, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("original:  %s\noptimized: %s\n", res.Original.Objectives, res.Best.Objectives)
	fmt.Printf("generations run: %d, Pareto front: %d\n", res.Generations, len(res.Front))
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := optimize.Apply(k, res.Best.Assignment).EncodeCSV(f); err != nil {
			return err
		}
		fmt.Printf("optimized matrix written to %s\n", *out)
	}
	return nil
}

func cmdSimulate(args []string) error {
	fs := newFlagSet("simulate")
	path := kmatrixFlag(fs)
	duration := fs.Duration("duration", 2*time.Second, "simulated time span")
	controller := fs.String("controller", "full", "full or basic (CAN controller type)")
	seed := fs.Int64("seed", 1, "simulation seed")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *duration <= 0 {
		return badValue("simulate", "duration", *duration, "a positive span")
	}
	ctrl, err := parseController(*controller)
	if err != nil {
		return err
	}
	k, err := loadMatrix(*path)
	if err != nil {
		return err
	}
	specs := make([]sim.MessageSpec, len(k.Messages))
	for i, m := range k.Messages {
		specs[i] = sim.MessageSpec{
			Name: m.Name, Frame: m.Frame(), Event: m.EventModel(), Node: m.Sender,
		}
	}
	res, err := sim.Run(specs, sim.Config{
		Bus: k.Bus(), Duration: *duration, Seed: *seed, Controller: ctrl,
	})
	if err != nil {
		return err
	}
	// Cross-check against the analytic bound.
	rep, err := rta.Analyze(k.ToRTA(), rta.Config{Bus: k.Bus()})
	if err != nil {
		return err
	}
	rows := make([][]string, 0, len(res.Stats))
	violations := 0
	for _, st := range res.Stats {
		bound := rep.ByName(st.Name).WCRT
		boundStr, okStr := "unbounded", "-"
		if bound != rta.Unschedulable {
			boundStr, okStr = bound.String(), "ok"
		}
		if st.Exceeds(bound) {
			okStr = "VIOLATION"
			violations++
		}
		rows = append(rows, []string{
			st.Name, fmt.Sprint(st.Sent), fmt.Sprint(st.Lost),
			st.MaxResponse.String(), boundStr, okStr,
		})
	}
	fmt.Print(report.Table(
		[]string{"message", "sent", "lost", "max observed", "analytic bound", "check"}, rows))
	fmt.Printf("\n%s controller, utilisation %.1f%%, bound violations: %d\n",
		ctrl, 100*res.Utilization(), violations)
	if violations > 0 {
		return fmt.Errorf("%d observed responses exceeded analytic bounds", violations)
	}
	return nil
}

func cmdValidate(args []string) error {
	fs := newFlagSet("validate")
	seeds := fs.Int("seeds", 64, "number of Monte-Carlo runs")
	duration := fs.Duration("duration", 2*time.Second, "simulated span per run")
	controller := fs.String("controller", "full", "full or basic (CAN controller type)")
	workers := workersFlag(fs)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *seeds <= 0 {
		return badValue("validate", "seeds", *seeds, "a positive count")
	}
	if *duration <= 0 {
		return badValue("validate", "duration", *duration, "a positive span")
	}
	ctrl, err := parseController(*controller)
	if err != nil {
		return err
	}
	mc, err := experiments.RunMonteCarlo(experiments.MonteCarloParams{
		Seeds: *seeds, Duration: *duration, Controller: ctrl, Workers: *workers,
	})
	if err != nil {
		return err
	}
	if _, err := fmt.Println(mc.Render()); err != nil {
		return err
	}
	if ctrl == sim.FullCAN && mc.Violations > 0 {
		return fmt.Errorf("%d observed responses exceeded analytic bounds", mc.Violations)
	}
	return nil
}

func cmdNetsim(args []string) error {
	fs := newFlagSet("netsim")
	seeds := fs.Int("seeds", 32, "number of network Monte-Carlo runs")
	duration := fs.Duration("duration", 2*time.Second, "simulated span per run")
	workers := workersFlag(fs)
	shallow := fs.Bool("shallow", false, "under-dimension the FIFO to depth 1 (predicted-loss demonstration)")
	gantt := fs.Bool("gantt", false, "render a multi-bus Gantt of the first seed")
	window := fs.Duration("window", 50*time.Millisecond, "Gantt window length")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *seeds <= 0 {
		return usageErrf("netsim: -seeds must be positive, got %d", *seeds)
	}
	if *duration <= 0 {
		return badValue("netsim", "duration", *duration, "a positive span")
	}
	nv, traces, err := experiments.RunNetworkValidation(experiments.NetworkValidationParams{
		Seeds: *seeds, Duration: *duration, Workers: *workers,
		Shallow: *shallow, Trace: *gantt,
	})
	if err != nil {
		return err
	}
	fmt.Println(nv.Render())
	if *gantt {
		fmt.Println(report.NetworkGantt(traces, 0, *window, 96))
	}
	if nv.Violations > 0 {
		return fmt.Errorf("%d observations exceeded compositional bounds", nv.Violations)
	}
	return nil
}
