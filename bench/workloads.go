package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"modsched/internal/core"
	"modsched/internal/kernels"
	"modsched/internal/loopgen"
	"modsched/internal/looplang"
	"modsched/internal/machine"
	"modsched/internal/stress"
)

// defaultSeed is the bench seed when -seed is not given.
const defaultSeed = 19941127

// The loop populations are fixed, generated at loopgen's default seed; the
// bench seed orders them (closed-loop workloads) or draws the request
// sequence over them (served). A fresh population per seed would make the
// p99 latency and the quality metrics follow whichever few large loops the
// draw produced, which moves them by more than any bound worth having.

// runner is a workload after set-up: inputs built, components started,
// warm-up pass done.
type runner interface {
	// run measures for d and fills rep. When traced it splits d between an
	// untraced phase (end-to-end metrics) and a traced one (per-layer
	// metrics), and returns the tracer holding the spans.
	run(rep *report, d time.Duration, traced bool) *tracer
	// peakRSSMB is the peak resident memory of the workload's processes.
	peakRSSMB() float64
	close()
}

// workload names one set of inputs and how to set it up from a seed.
type workload struct {
	name  string
	setup func(seed int64) (runner, error)
}

// workloads are run in this order when no -workload is given. Why each
// exists is recorded in BENCHMARK.json and bench/README.md.
var workloads = []workload{
	{"corpus-compile", batchSetup(corpusItems, runCompile)},
	{"schedule-large", batchSetup(largeItems, runSchedule)},
	{"simulate", batchSetup(simItems, runSimulate)},
	{"served", setupServed},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// batchRunner adapts a closed-loop workload to runner.
type batchRunner struct{ w *batchWorkload }

func (b batchRunner) run(rep *report, d time.Duration, traced bool) *tracer {
	return runBatch(b.w, rep, d, traced)
}

func (batchRunner) peakRSSMB() float64 { return peakRSSMB() }

func (batchRunner) close() {}

// batchSetup makes a closed-loop workload's set-up: build the items, put
// them in the seed's order, run the warm-up pass.
func batchSetup(build func() ([]batchItem, error), run func(*itemCtx, *batchItem) error) func(int64) (runner, error) {
	return func(seed int64) (runner, error) {
		items, err := build()
		if err != nil {
			return nil, err
		}
		w := newBatch(items, run, seed)
		if err := w.warmUp(); err != nil {
			return nil, err
		}
		return batchRunner{w}, nil
	}
}

// newBatch orders items by seed.
func newBatch(items []batchItem, run func(*itemCtx, *batchItem) error, seed int64) *batchWorkload {
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	return &batchWorkload{items: items, run: run}
}

// corpusItems builds the paper-shaped corpus — loopgen's default
// configuration plus the 27 Livermore kernels, on the Cydra 5 — and prints
// it to loop text, which is what msched and mschedd receive.
func corpusItems() ([]batchItem, error) {
	m := machine.Cydra5()
	loops, err := loopgen.Generate(loopgen.DefaultConfig(), m)
	if err != nil {
		return nil, err
	}
	ks, err := kernels.All(m)
	if err != nil {
		return nil, err
	}
	loops = append(loops, ks...)
	items := make([]batchItem, len(loops))
	for i, l := range loops {
		items[i] = batchItem{src: looplang.Print(l), mach: m, opts: core.DefaultOptions()}
	}
	return items, nil
}

// largeConfig shapes schedule-large's loops: 64 to 163 operations, where
// the scheduler's super-linear terms dominate.
var largeConfig = loopgen.Config{
	N: 200, MedianOps: 110, SigmaOps: 0.25, MinOps: 64, MaxOps: 163,
	VectorizableFrac: 0.05, InitLoopFrac: 0.01, PredicatedFrac: 0.3,
}

// fig6Budgets are BudgetRatio points from the paper's Figure 6 sweep.
var fig6Budgets = []float64{1.5, 2, 4, 6}

// largeItems builds the large loops on the Cydra 5 (few resources,
// single-word reservation masks) and on the 4x4 CGRA (41 resources,
// multi-word masks), each at every Figure 6 budget.
func largeItems() ([]batchItem, error) {
	cgra, err := machine.LoadMachineFile(repoPath("testdata/machines/cgra4x4.mach"))
	if err != nil {
		return nil, err
	}
	var items []batchItem
	for _, m := range []*machine.Machine{machine.Cydra5(), cgra} {
		loops, err := loopgen.Generate(largeConfig, m)
		if err != nil {
			return nil, err
		}
		for _, l := range loops {
			for _, b := range fig6Budgets {
				opts := core.DefaultOptions()
				opts.BudgetRatio = b
				items = append(items, batchItem{loop: l, mach: m, opts: opts})
			}
		}
	}
	return items, nil
}

// simLoops is how many corpus loops simulate runs besides the golden
// kernels.
const simLoops = 150

// simItems builds the golden kernels with their expected results and
// corpus loops with deterministic live-in state.
func simItems() ([]batchItem, error) {
	m := machine.Cydra5()
	cases, err := kernels.SimCases(m, simTrips)
	if err != nil {
		return nil, err
	}
	cfg := loopgen.DefaultConfig()
	cfg.N = simLoops
	loops, err := loopgen.Generate(cfg, m)
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions()
	var items []batchItem
	for _, c := range cases {
		items = append(items, batchItem{loop: c.Loop, mach: m, opts: opts, spec: c.Spec, golden: c.Check})
	}
	for _, l := range loops {
		items = append(items, batchItem{loop: l, mach: m, opts: opts, spec: stress.Spec(l, simTrips)})
	}
	return items, nil
}

// repoPath resolves a repository file from the checkout root (where the
// benchmark runs) or from bench/ (where its tests run).
func repoPath(rel string) string {
	for _, p := range []string{rel, filepath.Join("..", rel)} {
		if _, err := os.Stat(p); err == nil {
			return p
		}
	}
	return rel
}
