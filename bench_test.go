package repro_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/cacheserver"
	"repro/internal/campaign"
	"repro/internal/can"
	"repro/internal/contenthash"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/errormodel"
	"repro/internal/eventmodel"
	"repro/internal/experiments"
	"repro/internal/gateway"
	"repro/internal/kmatrix"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/optimize"
	"repro/internal/osek"
	"repro/internal/rta"
	"repro/internal/scenario"
	"repro/internal/sensitivity"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/tdma"
	"repro/internal/whatif"
)

// ---------------------------------------------------------------------
// One benchmark per figure of the paper. Each runs the exact experiment
// driver the CLI uses and reports the figure's headline number as a
// custom metric, so `go test -bench Fig` regenerates the evaluation.
// ---------------------------------------------------------------------

func BenchmarkFig1Load(b *testing.B) {
	var util float64
	for i := 0; i < b.N; i++ {
		f := experiments.RunFigure1()
		util = f.Paper.Utilization()
	}
	b.ReportMetric(100*util, "paper_load_%")
}

func BenchmarkFig2Trace(b *testing.B) {
	var errors int
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFigure2()
		if err != nil {
			b.Fatal(err)
		}
		errors = f.Result.Errors
	}
	b.ReportMetric(float64(errors), "injected_errors")
}

func BenchmarkFig3Inventory(b *testing.B) {
	var unknown int
	for i := 0; i < b.N; i++ {
		f := experiments.RunFigure3()
		unknown = f.Unknown
	}
	b.ReportMetric(float64(unknown), "assumed_jitters")
}

func BenchmarkFig4Sensitivity(b *testing.B) {
	var robust, sensitive int
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFigure4()
		if err != nil {
			b.Fatal(err)
		}
		robust = f.Counts[sensitivity.Robust]
		sensitive = f.Counts[sensitivity.Sensitive] + f.Counts[sensitivity.VerySensitive]
	}
	b.ReportMetric(float64(robust), "robust_msgs")
	b.ReportMetric(float64(sensitive), "sensitive_msgs")
}

func BenchmarkFig5MessageLoss(b *testing.B) {
	var before, after float64
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFigure5(experiments.Figure5Params{})
		if err != nil {
			b.Fatal(err)
		}
		before = experiments.LossAt(f.Worst, 0.25)
		after = experiments.LossAt(f.OptWorst, 0.25)
	}
	b.ReportMetric(100*before, "worst_loss_at_25%_before_%")
	b.ReportMetric(100*after, "worst_loss_at_25%_after_%")
}

func BenchmarkFig6Duality(b *testing.B) {
	var steps int
	for i := 0; i < b.N; i++ {
		f, err := experiments.RunFigure6()
		if err != nil {
			b.Fatal(err)
		}
		steps = len(f.Steps)
	}
	b.ReportMetric(float64(steps), "exchange_steps")
}

// ---------------------------------------------------------------------
// Ablations: the design choices DESIGN.md calls out, each quantified.
// ---------------------------------------------------------------------

// caseMatrix returns the case-study matrix at a 25% jitter level.
func caseMatrix() *kmatrix.KMatrix {
	return experiments.DefaultMatrix().WithJitterScale(0.25, false)
}

// worstOf returns the largest finite WCRT of a report in milliseconds.
func worstOf(rep *rta.Report) float64 {
	var worst time.Duration
	for _, r := range rep.Results {
		if r.WCRT != rta.Unschedulable && r.WCRT > worst {
			worst = r.WCRT
		}
	}
	return float64(worst) / float64(time.Millisecond)
}

// BenchmarkAblationBusyPeriod compares the revised multi-instance
// analysis against the classic single-instance equation on the Davis et
// al. refutation workload (C, 2.5C, 3.5C, 3.5C with C = 270us): the
// busy period of the lowest-priority message spans two instances and
// the classic equation underestimates its response. The metric reports
// how many messages it underestimates and by how much.
func BenchmarkAblationBusyPeriod(b *testing.B) {
	unit := 270 * time.Microsecond
	periods := []time.Duration{
		time.Duration(2.5 * float64(unit)),
		time.Duration(3.5 * float64(unit)),
		time.Duration(3.5 * float64(unit)),
	}
	var msgs []rta.Message
	for i, p := range periods {
		msgs = append(msgs, rta.Message{
			Name:  string(rune('A' + i)),
			Frame: can.Frame{ID: can.ID(0x100 + 0x10*i), Format: can.Standard11Bit, DLC: 8},
			Event: eventmodel.Periodic(p),
		})
	}
	cfg := rta.Config{Bus: can.Bus{Name: "stress", BitRate: can.Rate500k}}
	classicCfg := cfg
	classicCfg.ClassicSingleInstance = true

	var optimistic int
	var maxGap float64
	for i := 0; i < b.N; i++ {
		revised, err := rta.Analyze(msgs, cfg)
		if err != nil {
			b.Fatal(err)
		}
		classic, err := rta.Analyze(msgs, classicCfg)
		if err != nil {
			b.Fatal(err)
		}
		optimistic, maxGap = 0, 0
		for _, r := range revised.Results {
			c := classic.ByName(r.Message.Name)
			if c.WCRT < r.WCRT {
				optimistic++
				gap := float64(r.WCRT-c.WCRT) / float64(time.Millisecond)
				if gap > maxGap {
					maxGap = gap
				}
			}
			if c.WCRT > r.WCRT {
				b.Fatal("classic analysis above revised: impossible")
			}
		}
	}
	b.ReportMetric(float64(optimistic), "classic_optimistic_msgs")
	b.ReportMetric(maxGap, "max_underestimate_ms")
}

// BenchmarkAblationBitStuffing quantifies the worst-case stuffing margin.
func BenchmarkAblationBitStuffing(b *testing.B) {
	k := caseMatrix()
	msgs := k.ToRTA()
	for _, variant := range []struct {
		name     string
		stuffing can.Stuffing
	}{{"worst-case", can.StuffingWorstCase}, {"nominal", can.StuffingNominal}} {
		b.Run(variant.name, func(b *testing.B) {
			cfg := rta.Config{Bus: k.Bus(), Stuffing: variant.stuffing}
			var util, w float64
			for i := 0; i < b.N; i++ {
				rep, err := rta.Analyze(msgs, cfg)
				if err != nil {
					b.Fatal(err)
				}
				util, w = rep.Utilization, worstOf(rep)
			}
			b.ReportMetric(100*util, "util_%")
			b.ReportMetric(w, "max_wcrt_ms")
		})
	}
}

// BenchmarkAblationErrorModels compares the error overhead functions.
func BenchmarkAblationErrorModels(b *testing.B) {
	k := caseMatrix()
	msgs := k.ToRTA()
	for _, variant := range []struct {
		name   string
		errors errormodel.Model
	}{
		{"none", errormodel.None{}},
		{"sporadic-10ms", errormodel.Sporadic{Interval: 10 * time.Millisecond}},
		{"burst-10ms-k3", experiments.WorstBurst()},
	} {
		b.Run(variant.name, func(b *testing.B) {
			cfg := rta.Config{Bus: k.Bus(), Stuffing: can.StuffingWorstCase, Errors: variant.errors}
			var w float64
			var misses int
			for i := 0; i < b.N; i++ {
				rep, err := rta.Analyze(msgs, cfg)
				if err != nil {
					b.Fatal(err)
				}
				w, misses = worstOf(rep), rep.MissCount()
			}
			b.ReportMetric(w, "max_wcrt_ms")
			b.ReportMetric(float64(misses), "misses")
		})
	}
}

// BenchmarkAblationDeadlineModel compares implicit deadlines with the
// pessimistic min-re-arrival deadline.
func BenchmarkAblationDeadlineModel(b *testing.B) {
	k := caseMatrix()
	msgs := k.ToRTA()
	for _, variant := range []struct {
		name string
		dm   rta.DeadlineModel
	}{{"implicit", rta.DeadlineImplicit}, {"min-re-arrival", rta.DeadlineMinReArrival}} {
		b.Run(variant.name, func(b *testing.B) {
			cfg := rta.Config{Bus: k.Bus(), Stuffing: can.StuffingWorstCase, DeadlineModel: variant.dm}
			var misses int
			for i := 0; i < b.N; i++ {
				rep, err := rta.Analyze(msgs, cfg)
				if err != nil {
					b.Fatal(err)
				}
				misses = rep.MissCount()
			}
			b.ReportMetric(float64(misses), "misses")
		})
	}
}

// BenchmarkAblationControllerType shows basicCAN priority inversion in
// simulation: the same workload, two controller organisations.
func BenchmarkAblationControllerType(b *testing.B) {
	k := experiments.DefaultMatrix()
	specs := make([]sim.MessageSpec, len(k.Messages))
	for i, m := range k.Messages {
		specs[i] = sim.MessageSpec{Name: m.Name, Frame: m.Frame(), Event: m.EventModel(), Node: m.Sender}
	}
	// Priority inversion hits the high-priority messages: a node's FIFO
	// head holds its urgent frames back. Measure the worst observed
	// response among the 10 highest-priority messages.
	top := map[string]bool{}
	{
		sorted := k.Clone().Messages
		for i := 0; i < len(sorted); i++ {
			for j := i + 1; j < len(sorted); j++ {
				if sorted[j].ID < sorted[i].ID {
					sorted[i], sorted[j] = sorted[j], sorted[i]
				}
			}
		}
		for i := 0; i < 10 && i < len(sorted); i++ {
			top[sorted[i].Name] = true
		}
	}
	for _, variant := range []struct {
		name string
		ctrl sim.ControllerType
	}{{"fullCAN", sim.FullCAN}, {"basicCAN", sim.BasicCAN}} {
		b.Run(variant.name, func(b *testing.B) {
			var maxResp time.Duration
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(specs, sim.Config{
					Bus: k.Bus(), Duration: time.Second, Seed: 3, Controller: variant.ctrl,
				})
				if err != nil {
					b.Fatal(err)
				}
				maxResp = 0
				for _, st := range res.Stats {
					if top[st.Name] && st.MaxResponse > maxResp {
						maxResp = st.MaxResponse
					}
				}
			}
			b.ReportMetric(float64(maxResp)/float64(time.Millisecond), "top10_max_observed_ms")
		})
	}
}

// BenchmarkAblationOptimizers compares the priority-assignment
// strategies under the worst-case scenario at 25% jitter.
func BenchmarkAblationOptimizers(b *testing.B) {
	k := experiments.DefaultMatrix()
	worst := experiments.WorstCaseAnalysis()
	missesOf := func(a optimize.Assignment) int {
		cfg := worst
		cfg.Bus = k.Bus()
		applied := optimize.Apply(k, a).WithJitterScale(0.25, false)
		rep, err := rta.Analyze(applied.ToRTA(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		return rep.MissCount()
	}
	b.Run("original", func(b *testing.B) {
		var m int
		for i := 0; i < b.N; i++ {
			m = missesOf(optimize.Original(k))
		}
		b.ReportMetric(float64(m), "misses_at_25%")
	})
	b.Run("deadline-monotonic", func(b *testing.B) {
		var m int
		for i := 0; i < b.N; i++ {
			m = missesOf(optimize.DeadlineMonotonic(k, worst.DeadlineModel))
		}
		b.ReportMetric(float64(m), "misses_at_25%")
	})
	b.Run("rate-monotonic", func(b *testing.B) {
		var m int
		for i := 0; i < b.N; i++ {
			m = missesOf(optimize.RateMonotonic(k))
		}
		b.ReportMetric(float64(m), "misses_at_25%")
	})
	b.Run("audsley", func(b *testing.B) {
		var m int
		for i := 0; i < b.N; i++ {
			a, feasible, err := optimize.Audsley(k.WithJitterScale(0.25, false), worst)
			if err != nil {
				b.Fatal(err)
			}
			if !feasible {
				b.Fatal("Audsley infeasible")
			}
			m = missesOf(a)
		}
		b.ReportMetric(float64(m), "misses_at_25%")
	})
	b.Run("spea2", func(b *testing.B) {
		var m int
		for i := 0; i < b.N; i++ {
			res, err := optimize.Run(k, optimize.Config{
				Seed: 1, EvalScales: []float64{0, 0.25},
				Analysis: worst, StopOnZeroMiss: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			m = missesOf(res.Best.Assignment)
		}
		b.ReportMetric(float64(m), "misses_at_25%")
	})
}

// BenchmarkAblationTDMAvsCAN contrasts the jitter robustness of the two
// arbitration schemes: the victim's response growth when the rest of
// the bus becomes jittery.
func BenchmarkAblationTDMAvsCAN(b *testing.B) {
	ms := time.Millisecond
	bus := can.Bus{Name: "cmp", BitRate: can.Rate500k}
	frame := func(id can.ID) can.Frame {
		return can.Frame{ID: id, Format: can.Standard11Bit, DLC: 8}
	}
	growthCAN := func(jitterScale float64) float64 {
		mk := func(scale float64) []rta.Message {
			var msgs []rta.Message
			for i := 0; i < 8; i++ {
				p := 10 * ms
				msgs = append(msgs, rta.Message{
					Name:  string(rune('A' + i)),
					Frame: frame(can.ID(0x100 + 0x10*i)),
					Event: eventmodel.PeriodicJitter(p, time.Duration(scale*float64(p))),
				})
			}
			// The victim: lowest priority, never jittery itself.
			msgs = append(msgs, rta.Message{
				Name: "victim", Frame: frame(0x400), Event: eventmodel.Periodic(20 * ms),
			})
			return msgs
		}
		quiet, err := rta.Analyze(mk(0), rta.Config{Bus: bus})
		if err != nil {
			b.Fatal(err)
		}
		noisy, err := rta.Analyze(mk(jitterScale), rta.Config{Bus: bus})
		if err != nil {
			b.Fatal(err)
		}
		return float64(noisy.ByName("victim").WCRT) / float64(quiet.ByName("victim").WCRT)
	}
	growthTDMA := func() float64 {
		// One slot per message; the victim's bound is cycle-structural
		// and independent of the other streams' jitters by construction.
		slots := []tdma.Slot{{Owner: "victim", Length: ms}}
		for i := 0; i < 8; i++ {
			slots = append(slots, tdma.Slot{Owner: string(rune('A' + i)), Length: ms})
		}
		sched := tdma.Schedule{Slots: slots}
		msgs := []tdma.Message{{Name: "victim", Frame: frame(0x400), Event: eventmodel.Periodic(20 * ms)}}
		rep, err := tdma.Analyze(msgs, sched, bus, can.StuffingWorstCase)
		if err != nil {
			b.Fatal(err)
		}
		_ = rep
		return 1.0 // structurally flat: other streams cannot interfere
	}
	b.Run("CAN", func(b *testing.B) {
		var g float64
		for i := 0; i < b.N; i++ {
			g = growthCAN(0.9)
		}
		b.ReportMetric(g, "victim_wcrt_growth_x")
	})
	b.Run("TDMA", func(b *testing.B) {
		var g float64
		for i := 0; i < b.N; i++ {
			g = growthTDMA()
		}
		b.ReportMetric(g, "victim_wcrt_growth_x")
	})
}

// BenchmarkGatewayQueueDimensioning sizes a gateway FIFO for the
// case-study flows crossing from the power-train bus (the Section 5
// "queue configuration" parameter made concrete).
func BenchmarkGatewayQueueDimensioning(b *testing.B) {
	k := experiments.DefaultMatrix()
	cfg := rta.Config{Bus: k.Bus(), Stuffing: can.StuffingWorstCase}
	rep, err := rta.Analyze(k.ToRTA(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	// The flows GW1 forwards: everything it receives.
	var flows []gateway.Flow
	for _, m := range k.Messages {
		for _, rcv := range m.Receivers {
			if rcv == "GW1" {
				flows = append(flows, gateway.Flow{
					Name:    m.Name,
					Arrival: rep.ByName(m.Name).OutputModel(),
				})
				break
			}
		}
	}
	gcfg := gateway.Config{
		Name:    "GW1",
		Service: eventmodel.Periodic(time.Millisecond),
		Batch:   2,
	}
	var depth int
	var delay time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grep, err := gateway.Analyze(flows, gcfg)
		if err != nil {
			b.Fatal(err)
		}
		depth, delay = grep.RequiredDepth, grep.Delay
	}
	b.ReportMetric(float64(len(flows)), "flows")
	b.ReportMetric(float64(depth), "required_queue_depth")
	b.ReportMetric(float64(delay)/float64(time.Millisecond), "queue_delay_ms")
}

// BenchmarkExtensibility answers Section 2's "how many more ECUs" with
// the analysis, per scenario. The case-study bus is too full for more
// fast control traffic (20ms additions: zero fit — itself a finding);
// the benchmark probes 100ms status messages, the realistic late
// addition.
func BenchmarkExtensibility(b *testing.B) {
	k := experiments.DefaultMatrix()
	template := kmatrix.Message{
		Name: "New", ID: 1, DLC: 8, Period: 100 * time.Millisecond, Sender: "NewECU",
	}
	for _, variant := range []struct {
		name string
		cfg  rta.Config
	}{
		{"best", experiments.BestCaseAnalysis()},
		{"worst", experiments.WorstCaseAnalysis()},
	} {
		b.Run(variant.name, func(b *testing.B) {
			var n int
			for i := 0; i < b.N; i++ {
				var err error
				n, err = sensitivity.Extensibility(k, template,
					sensitivity.SweepConfig{Analysis: variant.cfg}, 0.05, 128)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n), "extra_100ms_msgs")
		})
	}
}

// BenchmarkToleranceTable derives the per-message supplier requirements.
func BenchmarkToleranceTable(b *testing.B) {
	k := experiments.DefaultMatrix()
	cfg := sensitivity.SweepConfig{Analysis: experiments.BestCaseAnalysis()}
	var critical float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table, err := sensitivity.ToleranceTable(k, cfg, 0.10, 2.0, 0.02)
		if err != nil {
			b.Fatal(err)
		}
		critical = table[0].MaxJitterScale
	}
	b.ReportMetric(100*critical, "most_critical_tolerance_%")
}

// ---------------------------------------------------------------------
// Raw throughput benchmarks for the analysis kernels.
// ---------------------------------------------------------------------

func BenchmarkAnalyzeCase88(b *testing.B) {
	k := caseMatrix()
	msgs := k.ToRTA()
	cfg := experiments.WorstCaseAnalysis()
	cfg.Bus = k.Bus()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rta.Analyze(msgs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTDMABacklog measures the TDMA backlog search on its two
// expensive shapes: an over-rate stream (period below the cycle, no
// depth ever drains) and a long burst (a jitter of a minute at 0.5ms
// spacing, draining after about 6300 instances). A linear scan over the
// depth costs 2^20 and about 6300 steps for them; the galloping search
// a few dozen delta- evaluations each.
func BenchmarkTDMABacklog(b *testing.B) {
	ms := time.Millisecond
	bus := can.Bus{Name: "tt", BitRate: can.Rate500k}
	frame := can.Frame{ID: 0x100, Format: can.Standard11Bit, DLC: 8}
	sched := tdma.Schedule{Slots: []tdma.Slot{{Owner: "over-rate", Length: ms}, {Owner: "burst", Length: ms}}}
	msgs := []tdma.Message{
		{Name: "over-rate", Frame: frame, Event: eventmodel.Periodic(ms)},
		{Name: "burst", Frame: frame, Event: eventmodel.PeriodicBurst(10*ms, time.Minute, ms/2)},
	}
	for i := 0; i < b.N; i++ {
		if _, err := tdma.Analyze(msgs, sched, bus, can.StuffingWorstCase); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulateSecond(b *testing.B) {
	k := experiments.DefaultMatrix()
	specs := make([]sim.MessageSpec, len(k.Messages))
	for i, m := range k.Messages {
		specs[i] = sim.MessageSpec{Name: m.Name, Frame: m.Frame(), Event: m.EventModel(), Node: m.Sender}
	}
	b.ResetTimer()
	var frames int
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(specs, sim.Config{Bus: k.Bus(), Duration: time.Second, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		frames = 0
		for _, st := range res.Stats {
			frames += st.Sent
		}
	}
	b.ReportMetric(float64(frames), "frames_per_sim_s")
}

// BenchmarkSimEngine measures the event-calendar engine on the
// case-study matrix: run with -benchmem — the heap engine's allocations
// per simulated second stay flat (a handful of setup allocations)
// where the seed engine allocated one instance per release plus one map
// per basicCAN arbitration.
func BenchmarkSimEngine(b *testing.B) {
	k := experiments.DefaultMatrix()
	specs := make([]sim.MessageSpec, len(k.Messages))
	for i, m := range k.Messages {
		specs[i] = sim.MessageSpec{Name: m.Name, Frame: m.Frame(), Event: m.EventModel(), Node: m.Sender}
	}
	for _, variant := range []struct {
		name string
		ctrl sim.ControllerType
	}{{"fullCAN", sim.FullCAN}, {"basicCAN", sim.BasicCAN}} {
		b.Run(variant.name, func(b *testing.B) {
			var frames int
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(specs, sim.Config{
					Bus: k.Bus(), Duration: time.Second, Seed: 1,
					Controller: variant.ctrl, Stuffing: sim.StuffRandom,
				})
				if err != nil {
					b.Fatal(err)
				}
				frames = 0
				for _, st := range res.Stats {
					frames += st.Sent
				}
			}
			b.ReportMetric(float64(frames), "frames_per_sim_s")
		})
	}
}

// BenchmarkRunBatch measures the parallel seed fan (sim.RunSeeds): a
// fan of seeds sharded over the worker pool. Throughput should scale
// with GOMAXPROCS (compare -cpu 1,4,...). The name is kept as a
// BENCH_PR10.json key.
func BenchmarkRunBatch(b *testing.B) {
	k := experiments.DefaultMatrix()
	specs := make([]sim.MessageSpec, len(k.Messages))
	for i, m := range k.Messages {
		specs[i] = sim.MessageSpec{Name: m.Name, Frame: m.Frame(), Event: m.EventModel(), Node: m.Sender}
	}
	seeds := make([]int64, 32)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	cfg := sim.Config{Bus: k.Bus(), Duration: 250 * time.Millisecond, Stuffing: sim.StuffRandom}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunSeeds(specs, cfg, seeds, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(seeds))*0.25, "sim_seconds_per_op")
}

// BenchmarkAnalyzeParallel measures the per-message fan-out of the
// response-time analysis on the worst-case case-study configuration:
// rta.AnalyzeCached without a cache. Compare with BenchmarkAnalyzeCase88
// (serial) and across -cpu counts.
func BenchmarkAnalyzeParallel(b *testing.B) {
	k := caseMatrix()
	msgs := k.ToRTA()
	cfg := experiments.WorstCaseAnalysis()
	cfg.Bus = k.Bus()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rta.AnalyzeCached(msgs, cfg, nil, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGatewayFixpoint(b *testing.B) {
	ms := time.Millisecond
	us := time.Microsecond
	build := func() *core.System {
		s := core.NewSystem()
		_ = s.AddECU("E1", osek.Config{}, []osek.Task{{
			Name: "t", Priority: 1, WCET: ms, BCET: 500 * us,
			Event: eventmodel.Periodic(10 * ms), Kind: osek.Preemptive}})
		_ = s.AddBus("B1", rta.Config{Bus: can.Bus{BitRate: can.Rate500k}}, []rta.Message{{
			Name: "M1", Frame: can.Frame{ID: 0x100, DLC: 8}, Event: eventmodel.Periodic(10 * ms)}})
		_ = s.AddECU("GW", osek.Config{}, []osek.Task{{
			Name: "fw", Priority: 1, WCET: 200 * us, BCET: 100 * us,
			Event: eventmodel.Periodic(10 * ms), Kind: osek.Preemptive}})
		_ = s.AddBus("B2", rta.Config{Bus: can.Bus{BitRate: can.Rate250k}}, []rta.Message{{
			Name: "M2", Frame: can.Frame{ID: 0x100, DLC: 8}, Event: eventmodel.Periodic(10 * ms)}})
		_ = s.Connect(core.ElementRef{Resource: "E1", Element: "t"}, core.ElementRef{Resource: "B1", Element: "M1"})
		_ = s.Connect(core.ElementRef{Resource: "B1", Element: "M1"}, core.ElementRef{Resource: "GW", Element: "fw"})
		_ = s.Connect(core.ElementRef{Resource: "GW", Element: "fw"}, core.ElementRef{Resource: "B2", Element: "M2"})
		_ = s.AddPath("p",
			core.ElementRef{Resource: "E1", Element: "t"},
			core.ElementRef{Resource: "B1", Element: "M1"},
			core.ElementRef{Resource: "GW", Element: "fw"},
			core.ElementRef{Resource: "B2", Element: "M2"})
		return s
	}
	b.ResetTimer()
	var latency time.Duration
	for i := 0; i < b.N; i++ {
		s := build()
		a, err := s.Analyze(0)
		if err != nil {
			b.Fatal(err)
		}
		latency = a.Paths[0].Latency
	}
	b.ReportMetric(float64(latency)/float64(time.Millisecond), "e2e_latency_ms")
}

// BenchmarkNetSim measures one run of the network-of-buses engine on
// the validation case study: two CAN buses, a TDMA backbone and two
// gateways under one global event heap.
func BenchmarkNetSim(b *testing.B) {
	sys, err := experiments.NetworkCaseStudy(experiments.DimensionedFIFODepth)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sys.Analyze(0); err != nil {
		b.Fatal(err)
	}
	topo, err := netsim.FromSystem(sys)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var frames int
	for i := 0; i < b.N; i++ {
		res, err := netsim.Run(topo, netsim.Config{Duration: time.Second, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		frames = 0
		for _, br := range res.Buses {
			for _, st := range br.Stats {
				frames += st.Sent
			}
		}
	}
	b.ReportMetric(float64(frames), "frames_per_run")
	// frames/s (wall throughput) feeds the CI bench gate alongside
	// ns/op; no log scraping — benchparse reads the metric directly.
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(frames)*float64(b.N)/secs, "frames/s")
	}
}

// BenchmarkNetSimSeeds measures the network Monte-Carlo fan on the
// worker pool; scales with -cpu.
func BenchmarkNetSimSeeds(b *testing.B) {
	sys, err := experiments.NetworkCaseStudy(experiments.DimensionedFIFODepth)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sys.Analyze(0); err != nil {
		b.Fatal(err)
	}
	topo, err := netsim.FromSystem(sys)
	if err != nil {
		b.Fatal(err)
	}
	seeds := make([]int64, 16)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	cfg := netsim.Config{Duration: 250 * time.Millisecond}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := netsim.RunSeeds(topo, cfg, seeds, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(seeds))*0.25, "sim_seconds_per_op")
}

// ---------------------------------------------------------------------
// What-if engine: incremental re-verification vs. from-scratch analysis
// ---------------------------------------------------------------------

// whatIfCase returns the 88-message case-study matrix, its worst-case
// analysis configuration, and the lowest-priority message (the natural
// single-edit scenario: a revision to anything higher-priority dirties
// everything below it by construction of the interference equations).
func whatIfCase(b *testing.B) (*kmatrix.KMatrix, rta.Config, string) {
	b.Helper()
	k := experiments.DefaultMatrix()
	cfg := experiments.WorstCaseAnalysis()
	cfg.Bus = k.Bus()
	rep, err := rta.Analyze(k.ToRTA(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	return k, cfg, rep.Results[len(rep.Results)-1].Message.Name
}

// BenchmarkWhatIf is the headline incremental-speedup benchmark: a
// single-message jitter edit on the 88-message power-train matrix,
// re-verified through a what-if session versus a from-scratch Analyze
// of the whole system. Every iteration applies a fresh jitter value, so
// the edited message is genuinely re-analysed (no revert hits); the
// speedup comes from the untouched interference prefix and the
// memoized fixpoint rounds. The "speedup" metric is the ratio of the
// from-scratch system analysis to one incremental re-verification.
func BenchmarkWhatIf(b *testing.B) {
	k, cfg, edited := whatIfCase(b)
	sys := core.NewSystem()
	if err := sys.AddBus(k.BusName, cfg, k.ToRTA()); err != nil {
		b.Fatal(err)
	}

	// From-scratch cost of the same re-verification (core.Analyze runs
	// the fixpoint plus the final verification pass).
	const fullReps = 10
	fullStart := time.Now()
	for i := 0; i < fullReps; i++ {
		if _, err := sys.Analyze(0); err != nil {
			b.Fatal(err)
		}
	}
	fullPerOp := time.Since(fullStart) / fullReps

	sess := whatif.NewSystemSession(sys, whatif.Options{Workers: 1})
	if _, err := sess.Analyze(0); err != nil {
		b.Fatal(err) // warm base
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sess.Apply(whatif.SetEventJitter{
			Resource: k.BusName, Element: edited,
			Jitter: time.Duration(i+1) * time.Microsecond,
		}); err != nil {
			b.Fatal(err)
		}
		if _, err := sess.Analyze(0); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	incPerOp := b.Elapsed() / time.Duration(b.N)
	if incPerOp > 0 {
		b.ReportMetric(float64(fullPerOp)/float64(incPerOp), "speedup")
	}
}

// BenchmarkWhatIfBus isolates the bus layer: the same single edit
// through rta.AnalyzeCached (per-message memoization only) versus the
// clone-and-analyze path the sweeps used before. Sub-benchmarks allow a
// direct ns/op comparison.
func BenchmarkWhatIfBus(b *testing.B) {
	k, cfg, edited := whatIfCase(b)
	b.Run("FullClone", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			variant := k.Clone()
			variant.ByName(edited).Jitter = time.Duration(i+1) * time.Microsecond
			if _, err := rta.Analyze(variant.ToRTA(), cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Incremental", func(b *testing.B) {
		sess := whatif.NewBusSession(k, cfg, whatif.Options{Workers: 1})
		if _, err := sess.Analyze(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sess.Apply(whatif.SetJitter{
				Message: edited, Jitter: time.Duration(i+1) * time.Microsecond,
			}); err != nil {
				b.Fatal(err)
			}
			if _, err := sess.Analyze(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------
// BenchmarkCampaign measures the sharded population study: a
// 64-scenario corpus through the full pipeline (generation, incremental
// analysis, network-simulation cross-validation, what-if perturbation).
// Scales with -cpu; run with -benchtime 1x for the CI smoke pass.
// ---------------------------------------------------------------------

func BenchmarkCampaign(b *testing.B) {
	var scenarios, frames, violations int
	for i := 0; i < b.N; i++ {
		rep, _, err := experiments.RunCampaign(experiments.CampaignParams{Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		scenarios = rep.Scenarios
		frames = rep.Frames
		violations = rep.Violations
	}
	b.ReportMetric(float64(scenarios), "scenarios")
	b.ReportMetric(float64(frames), "frames")
	b.ReportMetric(float64(violations), "violations")
	// scenarios/s (wall throughput) feeds the CI bench gate alongside
	// ns/op; no log scraping — benchparse reads the metric directly.
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(scenarios)*float64(b.N)/secs, "scenarios/s")
	}
}

// ---------------------------------------------------------------------
// BenchmarkDistribCampaign measures the distributed fan-out path: the
// same 64-scenario campaign as BenchmarkCampaign, but coordinated over
// two in-process shard workers on the HTTP/JSON wire. The coordinator
// streams shard specs — it never materializes the corpus; workers
// generate their own slices and rows travel back gzip-compressed with
// a partial fingerprint that the coordinator folds. The byte-identity
// of the folded report against the serial run is pinned by the
// internal/distrib tests; this benchmark tracks the wire + coordination
// overhead (run with -benchmem: allocs/op is dominated by rows, not
// corpus materialization). Its one sub-benchmark keeps the name
// "unpipelined" so it stays comparable with the BENCH_PR10.json
// baseline: each worker holds one shard in flight.
// ---------------------------------------------------------------------

func BenchmarkDistribCampaign(b *testing.B) {
	w1 := httptest.NewServer(distrib.NewWorker(distrib.WorkerConfig{}).Handler())
	defer w1.Close()
	w2 := httptest.NewServer(distrib.NewWorker(distrib.WorkerConfig{}).Handler())
	defer w2.Close()
	spec := scenario.Spec{Seed: 1, Count: 64}
	cfg := campaign.Config{Duration: 100 * time.Millisecond}
	b.Run("unpipelined", func(b *testing.B) {
		var scenarios int
		var wire int64
		for i := 0; i < b.N; i++ {
			job, err := campaign.NewSpecJob(spec, cfg)
			if err != nil {
				b.Fatal(err)
			}
			rep, stats, err := distrib.RunStats(context.Background(), job, distrib.Options{
				Workers:   []string{w1.URL, w2.URL},
				ShardSize: 8,
			})
			if err != nil {
				b.Fatal(err)
			}
			scenarios = rep.Scenarios
			wire = stats.BytesOnWire
		}
		b.ReportMetric(float64(scenarios), "scenarios")
		b.ReportMetric(float64(wire), "wire_B")
		if secs := b.Elapsed().Seconds(); secs > 0 {
			b.ReportMetric(float64(scenarios)*float64(b.N)/secs, "scenarios/s")
		}
	})
}

// ---------------------------------------------------------------------
// BenchmarkRemoteCache measures the fleet-tier client against a real
// in-process cacheserver on its three characteristic paths: hit (one
// HTTP round trip plus record verify + decode), miss (a 404 probe, the
// cold-corpus steady state), and degraded (breaker open — every Get a
// local fast-fail with zero network traffic). The degraded ns/op is
// the price a dead fleet tier adds to every lookup; it must stay
// orders of magnitude below recomputation, which is what makes
// -remote-cache safe to leave on everywhere.
// ---------------------------------------------------------------------

func BenchmarkRemoteCache(b *testing.B) {
	newServerURL := func(b *testing.B) string {
		b.Helper()
		disk, err := cache.NewDisk(b.TempDir(), 0)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(disk.Close)
		ts := httptest.NewServer(cacheserver.New(disk).Handler())
		b.Cleanup(ts.Close)
		return ts.URL
	}
	key := func(x uint64) contenthash.Digest {
		h := contenthash.New(41)
		h.Word(x)
		return h.Sum()
	}
	dial := func(b *testing.B, cfg cache.RemoteConfig) *cache.Remote {
		b.Helper()
		if cfg.Backoff == 0 {
			cfg.Backoff = time.Millisecond
		}
		r, err := cache.NewRemote(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(r.Close)
		return r
	}
	value := &rta.Result{Priority: 3, C: 130 * time.Microsecond, WCRT: 2 * time.Millisecond}

	b.Run("hit", func(b *testing.B) {
		url := newServerURL(b)
		w := dial(b, cache.RemoteConfig{BaseURL: url})
		w.Put(key(1), value)
		w.Close() // flush the write-behind queue before measuring
		r := dial(b, cache.RemoteConfig{BaseURL: url})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := r.Get(key(1)); !ok {
				b.Fatal("miss on a warmed key")
			}
		}
	})
	b.Run("miss", func(b *testing.B) {
		r := dial(b, cache.RemoteConfig{BaseURL: newServerURL(b)})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := r.Get(key(uint64(i) + 1000)); ok {
				b.Fatal("hit on a never-stored key")
			}
		}
	})
	b.Run("degraded", func(b *testing.B) {
		// A dead peer behind an immediately-tripped breaker with an
		// effectively infinite cooldown: after the first failure every
		// Get degrades locally without touching the network.
		ft := &cache.FaultyTransport{Sched: cache.Always(cache.FaultError)}
		r := dial(b, cache.RemoteConfig{
			BaseURL: newServerURL(b), Retries: -1,
			BreakerFailures: 1, BreakerCooldown: time.Hour,
			Client: &http.Client{Transport: ft},
		})
		r.Get(key(1)) // trip the breaker
		if rs := r.RemoteStats(); rs.Breaker != cache.BreakerOpen {
			b.Fatalf("breaker %s after a dead-peer Get, want open", rs.Breaker)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := r.Get(key(uint64(i))); ok {
				b.Fatal("hit through an open breaker")
			}
		}
		b.StopTimer()
		rs := r.RemoteStats()
		if got := ft.Injected(); got > 2 {
			b.Fatalf("open breaker let %d requests reach the network", got)
		}
		b.ReportMetric(float64(rs.Degraded)/float64(b.N), "degraded/op")
	})
}

// ---------------------------------------------------------------------
// BenchmarkServeLoad measures the multi-tenant admission path end to
// end: an in-process storm through the service middleware (token
// buckets, bounded queue, deadline race), reporting the client-observed
// p99 per route in milliseconds so the CI bench gate tracks tail
// latency alongside throughput. The drain phase is skipped — it
// measures campaign wall time, not the admission path.
// ---------------------------------------------------------------------

func BenchmarkServeLoad(b *testing.B) {
	var res *service.LoadTestResult
	for i := 0; i < b.N; i++ {
		r, err := service.LoadTest(service.LoadTestConfig{
			Clients: 64, Revisions: 8, Workers: 1, SkipDrain: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !r.Passed() {
			b.Fatalf("selftest failed under benchmark: %s", r.Render())
		}
		res = r
	}
	suffix := map[string]string{
		"POST /v1/sessions":              "create",
		"GET /v1/sessions/{id}/analysis": "analysis",
		"POST /v1/sessions/{id}/changes": "changes",
	}
	for _, rt := range res.Routes {
		if s, ok := suffix[rt.Route]; ok {
			b.ReportMetric(float64(rt.P99)/float64(time.Millisecond), "p99_"+s+"_ms")
		}
	}
	b.ReportMetric(float64(res.Shed), "shed")
	b.ReportMetric(float64(res.Requests)*float64(b.N)/b.Elapsed().Seconds(), "requests/s")
}

// ---------------------------------------------------------------------
// BenchmarkTracedServeLoad runs the BenchmarkServeLoad storm at three
// trace sampling rates — off, the default 1%, and 100% — so the CI
// bench gate pins the tracing overhead on the admission path. The
// tentpole budget is <= 5% p99 growth at the default rate; the full
// rate is informational (it prices worst-case always-on tracing).
// Responses stay byte-identical at every rate — the load test itself
// fails on any cross-client response mismatch.
// ---------------------------------------------------------------------

func BenchmarkTracedServeLoad(b *testing.B) {
	for _, tc := range []struct {
		name   string
		sample float64
	}{
		{"off", -1},    // sampling disabled entirely
		{"default", 0}, // service default: 1% of requests
		{"full", 1},    // every request traced
	} {
		b.Run(tc.name, func(b *testing.B) {
			var res *service.LoadTestResult
			for i := 0; i < b.N; i++ {
				r, err := service.LoadTest(service.LoadTestConfig{
					Clients: 64, Revisions: 8, Workers: 1, SkipDrain: true,
					Server: service.Config{TraceSample: tc.sample},
				})
				if err != nil {
					b.Fatal(err)
				}
				if !r.Passed() {
					b.Fatalf("selftest failed under traced benchmark: %s", r.Render())
				}
				res = r
			}
			for _, rt := range res.Routes {
				if rt.Route == "POST /v1/sessions/{id}/changes" {
					b.ReportMetric(float64(rt.P99)/float64(time.Millisecond), "p99_changes_ms")
				}
			}
			b.ReportMetric(float64(res.Requests)*float64(b.N)/b.Elapsed().Seconds(), "requests/s")
		})
	}
}

// ---------------------------------------------------------------------
// BenchmarkTracedCampaign runs the quick 64-scenario campaign with a
// full-rate trace attached (every scenario records its span tree into a
// scratch trace and adopts it into the campaign trace) — the price of
// `symtago campaign -trace-out`. Compare against BenchmarkCampaign for
// the untraced baseline.
// ---------------------------------------------------------------------

func BenchmarkTracedCampaign(b *testing.B) {
	var scenarios, spans int
	for i := 0; i < b.N; i++ {
		tr := obs.NewTrace(obs.NewID(), 0)
		ctx := obs.ContextWithTrace(context.Background(), tr)
		rep, _, err := experiments.RunCampaign(experiments.CampaignParams{Quick: true, Context: ctx})
		if err != nil {
			b.Fatal(err)
		}
		scenarios = rep.Scenarios
		spans = tr.Len()
	}
	b.ReportMetric(float64(scenarios), "scenarios")
	b.ReportMetric(float64(spans), "spans")
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(scenarios)*float64(b.N)/secs, "scenarios/s")
	}
}
