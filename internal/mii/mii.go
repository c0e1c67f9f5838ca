package mii

import (
	"context"

	"modsched/internal/ir"
	"modsched/internal/machine"
)

// Result bundles the lower bounds and structural facts computed before
// scheduling.
type Result struct {
	ResMII int
	// MII is the production lower bound: the recurrence search seeded at
	// ResMII, i.e. max(ResMII, RecMII) without ever probing below ResMII.
	MII int
	// AltChoice is the advisory alternative selection from the ResMII
	// greedy pass (indexed by op; -1 where not applicable).
	AltChoice []int
	// SCCSizes holds the size of every SCC over the real (non-pseudo)
	// operations; NonTrivialSCCs lists those with more than one operation.
	SCCSizes       []int
	NonTrivialSCCs [][]int
	// SCCs is the full condensation the recurrence search walked: every
	// SCC of the dependence graph, pseudo-ops included, in the order SCCs
	// returns them. The scheduler reuses it for HeightR instead of running
	// Tarjan again. NonTrivialSCCs aliases its components; treat both as
	// read-only.
	SCCs [][]int
}

// Compute runs the Section 2 analysis: ResMII, then the per-SCC
// recurrence search seeded at ResMII. delays must come from ir.Delays.
func Compute(l *ir.Loop, m *machine.Machine, delays []int, c *Counters) (*Result, error) {
	return ComputeContext(nil, l, m, delays, c)
}

// ComputeContext is Compute with cancellation: ctx.Err() is checked inside
// the MinDist closures of the recurrence search (the only super-linear part
// of the analysis). A nil ctx disables the checks.
func ComputeContext(ctx context.Context, l *ir.Loop, m *machine.Machine, delays []int, c *Counters) (*Result, error) {
	return ComputeScratch(ctx, l, m, delays, c, nil)
}

// ComputeScratch is ComputeContext with caller-owned MinDist buffers,
// reused across the recurrence search's feasibility probes. A nil ws uses
// a call-local scratch.
func ComputeScratch(ctx context.Context, l *ir.Loop, m *machine.Machine, delays []int, c *Counters, ws *Scratch) (*Result, error) {
	resMII, choice, err := ResMII(l, m, c)
	if err != nil {
		return nil, err
	}
	comps := SCCs(l)
	miiVal, err := recurrenceMII(ctx, l, delays, comps, resMII, c, ws)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ResMII:    resMII,
		MII:       miiVal,
		AltChoice: choice,
		SCCs:      comps,
	}
	// START only precedes and STOP only succeeds (ir.Loop.Validate), so
	// neither lies on a circuit: both are singletons of comps, and
	// dropping them leaves exactly the SCCs of the real operations.
	start, stop := l.Start(), l.Stop()
	for _, comp := range comps {
		if len(comp) == 1 && (comp[0] == start || comp[0] == stop) {
			continue
		}
		res.SCCSizes = append(res.SCCSizes, len(comp))
		if len(comp) > 1 {
			res.NonTrivialSCCs = append(res.NonTrivialSCCs, comp)
		}
	}
	return res, nil
}

// ExactRecMII computes the true recurrence-constrained bound by seeding
// the per-SCC search at 1 (used by the Table 3 statistic
// max(0, RecMII-ResMII); the production MII path never probes below
// ResMII).
func ExactRecMII(l *ir.Loop, delays []int, c *Counters) (int, error) {
	return RecurrenceMII(l, delays, 1, c)
}
