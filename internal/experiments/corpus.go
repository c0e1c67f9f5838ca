// Package experiments reproduces the paper's evaluation: the Table 3
// distribution statistics, the Figure 6 BudgetRatio sweep, the Table 4
// empirical computational-complexity fits, and the Section 4.3/5 headline
// numbers, all over the stand-in corpus (1300 synthetic loops calibrated
// to the paper's population statistics plus the 27 Livermore kernels).
package experiments

import (
	"context"
	"fmt"

	"modsched/internal/core"
	"modsched/internal/ir"
	"modsched/internal/kernels"
	"modsched/internal/listsched"
	"modsched/internal/loopgen"
	"modsched/internal/machine"
	"modsched/internal/mii"
	"modsched/internal/schedcache"
)

// LoopResult is everything the evaluation needs about one scheduled loop.
type LoopResult struct {
	Name string
	// N is the real-operation count, E the number of dependence edges not
	// involving the START/STOP pseudo-ops.
	N, E int
	// Lower bounds and achieved values.
	ResMII, RecMII, MII, II, SL int
	// MinSL is the schedule-length lower bound at the achieved II: the
	// larger of MinDist[START][STOP] and the acyclic list schedule length.
	MinSL int
	// SCC structure over the real operations.
	SCCSizes       []int
	NonTrivialSCCs int
	// Scheduling effort.
	StepsFinal, StepsTotal int64
	Counters               core.Counters
	// Profile weights.
	EntryFreq, LoopFreq int64
}

// ExecTime is the paper's execution-time metric for one loop.
func ExecTime(entry, loops int64, sl, ii int) int64 {
	return entry*int64(sl) + (loops-entry)*int64(ii)
}

// ExecTimeActual and ExecTimeBound evaluate the metric at the achieved
// (SL, II) and at the lower bounds (MinSL, MII).
func (r *LoopResult) ExecTimeActual() int64 { return ExecTime(r.EntryFreq, r.LoopFreq, r.SL, r.II) }
func (r *LoopResult) ExecTimeBound() int64  { return ExecTime(r.EntryFreq, r.LoopFreq, r.MinSL, r.MII) }

// CorpusResult aggregates a full corpus run.
type CorpusResult struct {
	Machine     string
	BudgetRatio float64
	Loops       []LoopResult
}

// Corpus returns the paper-scale stand-in corpus on machine m.
func Corpus(m *machine.Machine) ([]*ir.Loop, error) {
	loops, err := loopgen.Generate(loopgen.DefaultConfig(), m)
	if err != nil {
		return nil, err
	}
	ks, err := kernels.All(m)
	if err != nil {
		return nil, err
	}
	return append(loops, ks...), nil
}

// SmallCorpus returns a reduced corpus for -short tests and quick runs.
func SmallCorpus(m *machine.Machine, n int) ([]*ir.Loop, error) {
	cfg := loopgen.DefaultConfig()
	cfg.N = n
	loops, err := loopgen.Generate(cfg, m)
	if err != nil {
		return nil, err
	}
	ks, err := kernels.All(m)
	if err != nil {
		return nil, err
	}
	return append(loops, ks...), nil
}

// RunCorpus schedules every loop and collects the per-loop measurements.
// exactRecMII additionally computes the true RecMII (needed by the
// max(0, RecMII-ResMII) row of Table 3) at extra cost. Loops are
// scheduled in parallel on DefaultWorkers workers; use RunCorpusWorkers
// to control the worker count or to cancel.
func RunCorpus(loops []*ir.Loop, m *machine.Machine, budgetRatio float64, exactRecMII bool) (*CorpusResult, error) {
	return RunCorpusWorkers(context.Background(), loops, m, budgetRatio, exactRecMII, 0)
}

// RunCorpusWorkers is RunCorpus over a worker pool. Each loop is an
// independent scheduling problem; results are written into their input
// slot, so the CorpusResult — and every statistic derived from it — is
// byte-identical to a sequential run regardless of workers. workers <= 0
// means one per CPU; workers == 1 is fully sequential.
func RunCorpusWorkers(ctx context.Context, loops []*ir.Loop, m *machine.Machine, budgetRatio float64, exactRecMII bool, workers int) (*CorpusResult, error) {
	return RunCorpusCached(ctx, loops, m, budgetRatio, exactRecMII, workers, nil)
}

// RunCorpusCached is RunCorpusWorkers with an optional memoizing compile
// cache. The corpus generator emits many structurally identical loops
// under different names (initialization loops especially); with a cache,
// each distinct structure is scheduled once and later occurrences hit.
// Scheduling is deterministic in the loop structure, so the CorpusResult
// is byte-identical to an uncached run — TestRunCorpusCachedIdentical
// pins this. A nil cache compiles every loop.
func RunCorpusCached(ctx context.Context, loops []*ir.Loop, m *machine.Machine, budgetRatio float64, exactRecMII bool, workers int, cache *schedcache.Cache) (*CorpusResult, error) {
	res := &CorpusResult{Machine: m.Name, BudgetRatio: budgetRatio, Loops: make([]LoopResult, len(loops))}
	opts := core.DefaultOptions()
	opts.BudgetRatio = budgetRatio
	err := ParallelFor(ctx, len(loops), workers, func(ctx context.Context, i int) error {
		lr, err := runOne(ctx, loops[i], m, opts, exactRecMII, cache)
		if err != nil {
			return fmt.Errorf("experiments: loop %s: %w", loops[i].Name, err)
		}
		res.Loops[i] = *lr
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

func runOne(ctx context.Context, l *ir.Loop, m *machine.Machine, opts core.Options, exactRecMII bool, cache *schedcache.Cache) (*LoopResult, error) {
	var s *core.Schedule
	var err error
	if cache != nil {
		s, _, err = cache.Do(ctx, l, m, opts, func() (*core.Schedule, *core.Degradation, error) {
			sched, cerr := core.ModuloScheduleContext(ctx, l, m, opts)
			return sched, nil, cerr
		})
	} else {
		s, err = core.ModuloScheduleContext(ctx, l, m, opts)
	}
	if err != nil {
		return nil, err
	}
	delays, err := ir.Delays(l, m, opts.DelayModel)
	if err != nil {
		return nil, err
	}

	lr := &LoopResult{
		Name:       l.Name,
		N:          l.NumRealOps(),
		ResMII:     s.ResMII,
		MII:        s.MII,
		II:         s.II,
		SL:         s.Length,
		StepsFinal: s.Stats.SchedStepsFinal,
		StepsTotal: s.Stats.SchedSteps,
		Counters:   s.Stats,
		EntryFreq:  l.EntryFreq,
		LoopFreq:   l.LoopFreq,
	}
	start, stop := l.Start(), l.Stop()
	for _, e := range l.Edges {
		if e.From != start && e.From != stop && e.To != start && e.To != stop {
			lr.E++
		}
	}

	// SCC structure.
	bounds, err := mii.Compute(l, m, delays, nil)
	if err != nil {
		return nil, err
	}
	lr.SCCSizes = bounds.SCCSizes
	lr.NonTrivialSCCs = len(bounds.NonTrivialSCCs)

	if exactRecMII {
		rec, err := mii.ExactRecMII(l, delays, nil)
		if err != nil {
			return nil, err
		}
		lr.RecMII = rec
	}

	// Schedule-length lower bound at the achieved II.
	md := mii.ComputeMinDist(l, delays, s.II, mii.AllNodes(l), nil)
	minSL := md.At(start, stop)
	ls, err := listsched.Schedule(l, m, delays)
	if err != nil {
		return nil, err
	}
	if ls.Length > minSL {
		minSL = ls.Length
	}
	if minSL < 1 {
		minSL = 1
	}
	lr.MinSL = minSL
	return lr, nil
}
