package optimize

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/kmatrix"
	"repro/internal/rta"
)

// Config parameterises the genetic search.
type Config struct {
	// Seed drives all randomness; equal seeds reproduce runs exactly.
	Seed int64
	// Population is the working population size (default 32).
	Population int
	// Archive is the SPEA2 archive size (default 16).
	Archive int
	// Generations bounds the search (default 60).
	Generations int
	// CrossoverProb is the per-offspring order-crossover probability
	// (default 0.9).
	CrossoverProb float64
	// MutationSwaps is the expected number of swap mutations per
	// offspring (default 2).
	MutationSwaps float64
	// EvalScales are the jitter scales the objectives accumulate misses
	// over. Default {0, 0.125, 0.25}: the paper's target is zero loss at
	// 25% jitter.
	EvalScales []float64
	// RobustnessScale is the jitter scale at which the robustness
	// objective (mean normalised slack) is measured. Zero selects the
	// last entry of EvalScales. Choosing a scale beyond the miss target
	// makes the GA "favor robust configurations over sensitive ones", as
	// the paper configured its optimizer.
	RobustnessScale float64
	// OnlyUnknown restricts jitter scaling to messages without supplier
	// data, mirroring sensitivity.SweepConfig.
	OnlyUnknown bool
	// Analysis is the worst-case analysis configuration (stuffing,
	// errors, deadline model). Its Bus field is overwritten.
	Analysis rta.Config
	// NoSeedHeuristics disables injecting the original, deadline-
	// monotonic and rate-monotonic assignments into the initial
	// population. By default the GA starts from industrially plausible
	// configurations, as the SymTA/S optimizer did.
	NoSeedHeuristics bool
	// StopOnZeroMiss stops early once the archive contains a zero-miss
	// individual and at least MinGenerations have elapsed.
	StopOnZeroMiss bool
	// MinGenerations is the minimum number of generations before an
	// early stop (default 5).
	MinGenerations int
	// Workers bounds the worker pool evaluating individuals. Zero or
	// negative selects GOMAXPROCS. The search is deterministic for a
	// fixed seed regardless of the worker count: all randomness is drawn
	// serially, only the (pure) objective evaluations are fanned out.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.Population == 0 {
		c.Population = 32
	}
	if c.Archive == 0 {
		c.Archive = 16
	}
	if c.Generations == 0 {
		c.Generations = 60
	}
	if c.CrossoverProb == 0 {
		c.CrossoverProb = 0.9
	}
	if c.MutationSwaps == 0 {
		c.MutationSwaps = 2
	}
	if len(c.EvalScales) == 0 {
		c.EvalScales = []float64{0, 0.125, 0.25}
	}
	if c.RobustnessScale == 0 {
		c.RobustnessScale = c.EvalScales[len(c.EvalScales)-1]
	}
	if c.MinGenerations == 0 {
		c.MinGenerations = 5
	}
	return c
}

// Candidate pairs an assignment with its objectives.
type Candidate struct {
	Assignment Assignment
	Objectives Objectives
}

// GenStats records per-generation progress for reports.
type GenStats struct {
	// Generation counts from 0.
	Generation int
	// BestMisses is the lowest miss count in the archive.
	BestMisses int
	// BestRobustness is the best (largest) robustness in the archive.
	BestRobustness float64
}

// Result is the outcome of a GA run.
type Result struct {
	// Best is the lexicographically best candidate found (fewest misses,
	// then most robust).
	Best Candidate
	// Original is the matrix's starting assignment with its objectives.
	Original Candidate
	// Front is the final non-dominated set.
	Front []Candidate
	// History records archive progress per generation.
	History []GenStats
	// Generations is the number of generations actually run.
	Generations int
}

// individual is a permutation of message indices: gene[rank] = message
// index receiving the rank-th lowest ID (highest priority first).
type individual struct {
	order []int
	obj   Objectives
	// SPEA2 bookkeeping.
	fitness float64
}

// Run executes the SPEA2 search on the matrix.
func Run(k *kmatrix.KMatrix, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if len(k.Messages) < 2 {
		return nil, fmt.Errorf("optimize: need at least 2 messages, got %d", len(k.Messages))
	}
	analysis := cfg.Analysis
	analysis.Bus = k.Bus()
	ev := &evaluator{
		k:           k,
		cfg:         analysis,
		scales:      cfg.EvalScales,
		robustScale: cfg.RobustnessScale,
		onlyUnknown: cfg.OnlyUnknown,
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := len(k.Messages)

	res := &Result{}
	origObj, err := ev.evalAssignment(Original(k))
	if err != nil {
		return nil, err
	}
	res.Original = Candidate{Assignment: Original(k), Objectives: origObj}

	pop, err := initialPopulation(k, ev, cfg, rng, n)
	if err != nil {
		return nil, err
	}
	var archive []*individual

	for gen := 0; gen < cfg.Generations; gen++ {
		union := append(append([]*individual{}, pop...), archive...)
		assignFitness(union)
		archive = environmentalSelection(union, cfg.Archive)
		res.Generations = gen + 1
		res.History = append(res.History, archiveStats(gen, archive))

		if cfg.StopOnZeroMiss && gen+1 >= cfg.MinGenerations && res.History[gen].BestMisses == 0 {
			break
		}
		if gen == cfg.Generations-1 {
			break
		}
		// Mating: binary tournaments on the archive produce the next
		// population via order crossover and swap mutation. All offspring
		// are generated first (the RNG sequence is serial and fixed),
		// then scored concurrently — evaluation is the expensive, pure
		// part.
		next := make([]*individual, 0, cfg.Population)
		for len(next) < cfg.Population {
			a := tournament(rng, archive)
			b := tournament(rng, archive)
			child := make([]int, n)
			if rng.Float64() < cfg.CrossoverProb {
				orderCrossover(rng, a.order, b.order, child)
			} else {
				copy(child, a.order)
			}
			mutateSwaps(rng, child, cfg.MutationSwaps)
			next = append(next, &individual{order: child})
		}
		if err := ev.evalAll(next, cfg.Workers); err != nil {
			return nil, err
		}
		pop = next
	}

	// Report the final front and the lexicographically best candidate,
	// never worse than the original (the OEM keeps the old matrix if the
	// GA cannot improve on it).
	best := res.Original
	for _, ind := range archive {
		cand := Candidate{Assignment: fromOrder(k, ind.order), Objectives: ind.obj}
		res.Front = append(res.Front, cand)
		if cand.Objectives.Better(best.Objectives) {
			best = cand
		}
	}
	sort.Slice(res.Front, func(i, j int) bool {
		return res.Front[i].Objectives.Better(res.Front[j].Objectives)
	})
	res.Best = best
	return res, nil
}

// initialPopulation mixes heuristic seeds with random permutations; the
// permutations are drawn serially, the scoring is pooled.
func initialPopulation(k *kmatrix.KMatrix, ev *evaluator, cfg Config, rng *rand.Rand, n int) ([]*individual, error) {
	pop := make([]*individual, 0, cfg.Population)
	if !cfg.NoSeedHeuristics {
		for _, a := range []Assignment{
			Original(k),
			DeadlineMonotonic(k, cfg.Analysis.DeadlineModel),
			RateMonotonic(k),
		} {
			if len(pop) == cfg.Population {
				break
			}
			pop = append(pop, &individual{order: orderOf(k, a)})
		}
	}
	for len(pop) < cfg.Population {
		pop = append(pop, &individual{order: rng.Perm(n)})
	}
	if err := ev.evalAll(pop, cfg.Workers); err != nil {
		return nil, err
	}
	return pop, nil
}

// orderOf converts an assignment back into a rank order.
func orderOf(k *kmatrix.KMatrix, a Assignment) []int {
	order := identityOrder(len(k.Messages))
	sort.SliceStable(order, func(i, j int) bool {
		return a[k.Messages[order[i]].Name] < a[k.Messages[order[j]].Name]
	})
	return order
}

// assignFitness computes the SPEA2 fitness F = R + D over the union.
func assignFitness(union []*individual) {
	n := len(union)
	strength := make([]int, n)
	for i := range union {
		for j := range union {
			if i != j && union[i].obj.Dominates(union[j].obj) {
				strength[i]++
			}
		}
	}
	dist := objectiveDistances(union)
	k := int(math.Sqrt(float64(n)))
	if k < 1 {
		k = 1
	}
	for i := range union {
		raw := 0
		for j := range union {
			if i != j && union[j].obj.Dominates(union[i].obj) {
				raw += strength[j]
			}
		}
		sigma := kthNearest(dist[i], i, k)
		union[i].fitness = float64(raw) + 1.0/(sigma+2.0)
	}
}

// environmentalSelection builds the next archive: all non-dominated
// individuals, truncated by repeatedly dropping the most crowded one, or
// filled with the best dominated individuals.
func environmentalSelection(union []*individual, size int) []*individual {
	var nondom, dom []*individual
	for _, ind := range union {
		if ind.fitness < 1 {
			nondom = append(nondom, ind)
		} else {
			dom = append(dom, ind)
		}
	}
	if len(nondom) > size {
		return truncate(nondom, size)
	}
	if len(nondom) < size {
		sort.Slice(dom, func(i, j int) bool { return dom[i].fitness < dom[j].fitness })
		for _, ind := range dom {
			if len(nondom) == size {
				break
			}
			nondom = append(nondom, ind)
		}
	}
	return nondom
}

// truncate removes individuals with the smallest nearest-neighbour
// distance until the set fits, preserving spread (SPEA2 truncation).
func truncate(set []*individual, size int) []*individual {
	set = append([]*individual{}, set...)
	for len(set) > size {
		dist := objectiveDistances(set)
		worst := 0
		worstKey := math.Inf(1)
		for i := range set {
			key := kthNearest(dist[i], i, 1)
			if key < worstKey {
				worstKey = key
				worst = i
			}
		}
		set = append(set[:worst], set[worst+1:]...)
	}
	return set
}

// objectiveDistances returns the pairwise Euclidean distances in a
// normalised objective space.
func objectiveDistances(set []*individual) [][]float64 {
	n := len(set)
	maxMiss := 1.0
	for _, ind := range set {
		if float64(ind.obj.Misses) > maxMiss {
			maxMiss = float64(ind.obj.Misses)
		}
	}
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dm := float64(set[i].obj.Misses-set[j].obj.Misses) / maxMiss
			dr := (set[i].obj.NegRobustness - set[j].obj.NegRobustness) / 2
			v := math.Sqrt(dm*dm + dr*dr)
			d[i][j], d[j][i] = v, v
		}
	}
	return d
}

// kthNearest returns the k-th smallest distance from row (excluding
// self).
func kthNearest(row []float64, self, k int) float64 {
	others := make([]float64, 0, len(row)-1)
	for j, v := range row {
		if j != self {
			others = append(others, v)
		}
	}
	if len(others) == 0 {
		return 0
	}
	sort.Float64s(others)
	if k > len(others) {
		k = len(others)
	}
	return others[k-1]
}

// tournament picks the fitter of two random archive members (lower
// SPEA2 fitness is better).
func tournament(rng *rand.Rand, archive []*individual) *individual {
	a := archive[rng.Intn(len(archive))]
	b := archive[rng.Intn(len(archive))]
	if a.fitness <= b.fitness {
		return a
	}
	return b
}

// orderCrossover implements OX1 for permutations: a random segment of
// parent a is kept in place, the remaining positions are filled with the
// genes of parent b in b's order.
func orderCrossover(rng *rand.Rand, a, b, child []int) {
	n := len(a)
	lo := rng.Intn(n)
	hi := lo + rng.Intn(n-lo)
	used := make(map[int]bool, hi-lo+1)
	for i := lo; i <= hi; i++ {
		child[i] = a[i]
		used[a[i]] = true
	}
	pos := 0
	for _, g := range b {
		if used[g] {
			continue
		}
		for pos >= lo && pos <= hi {
			pos++
		}
		child[pos] = g
		pos++
	}
}

// mutateSwaps applies a Poisson-ish number of random transpositions.
func mutateSwaps(rng *rand.Rand, order []int, expected float64) {
	n := len(order)
	swaps := 0
	for rng.Float64() < expected/(expected+1) {
		swaps++
		if swaps > 10*int(expected+1) {
			break
		}
	}
	for s := 0; s < swaps; s++ {
		i, j := rng.Intn(n), rng.Intn(n)
		order[i], order[j] = order[j], order[i]
	}
}

// archiveStats summarises an archive.
func archiveStats(gen int, archive []*individual) GenStats {
	st := GenStats{Generation: gen, BestMisses: math.MaxInt, BestRobustness: math.Inf(-1)}
	for _, ind := range archive {
		if ind.obj.Misses < st.BestMisses {
			st.BestMisses = ind.obj.Misses
		}
		if r := -ind.obj.NegRobustness; r > st.BestRobustness {
			st.BestRobustness = r
		}
	}
	return st
}
