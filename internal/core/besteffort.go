package core

import (
	"context"
	"errors"
	"fmt"

	"modsched/internal/ir"
	"modsched/internal/listsched"
	"modsched/internal/machine"
	"modsched/internal/mii"
)

// Stage names reported by Degradation, in fallback order.
const (
	StageIterative = AlgoIterative
	StageSlack     = AlgoSlack
	StageAcyclic   = "acyclic"
)

// StageFailure records why one stage of the best-effort fallback chain
// failed to produce a schedule.
type StageFailure struct {
	Stage string
	Err   error
}

// Degradation reports how a best-effort compilation was satisfied: which
// stage produced the returned schedule, and why every earlier stage
// failed. A report with Stage == StageIterative and no Failures is the
// non-degraded case.
type Degradation struct {
	// Stage names the pipeline stage that produced the schedule.
	Stage string
	// Failures records the earlier stages' errors, in attempt order.
	Failures []StageFailure
}

// Degraded reports whether a fallback stage (not the paper's iterative
// scheduler) produced the schedule.
func (d *Degradation) Degraded() bool { return d.Stage != StageIterative }

// String renders a one-line-per-stage report.
func (d *Degradation) String() string {
	s := "schedule produced by " + d.Stage + " stage"
	for _, f := range d.Failures {
		s += fmt.Sprintf("; %s failed: %v", f.Stage, f.Err)
	}
	return s
}

// ModuloScheduleBestEffort is the graceful-degradation entry point: it
// tries iterative modulo scheduling, then slack scheduling, and finally
// an acyclic list schedule reinterpreted as a degenerate modulo schedule
// (II = schedule length, no iteration overlap). Every returned schedule
// passes Check. The Degradation report names the stage that succeeded and
// carries the earlier stages' errors.
//
// Cancellation is respected, not degraded around: once ctx is done, the
// chain stops and the cancellation error is returned. Invalid inputs
// (ErrInvalidLoop, ErrInvalidMachine) also fail immediately — no fallback
// stage could accept them either.
func ModuloScheduleBestEffort(ctx context.Context, l *ir.Loop, m *machine.Machine, opts Options) (*Schedule, *Degradation, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	deg := &Degradation{}
	type stage struct {
		name string
		run  func() (*Schedule, error)
	}
	stages := []stage{
		{StageIterative, func() (*Schedule, error) { return ModuloScheduleContext(ctx, l, m, opts) }},
		{StageSlack, func() (*Schedule, error) { return ModuloScheduleSlackContext(ctx, l, m, opts) }},
		{StageAcyclic, func() (*Schedule, error) { return acyclicDegenerate(ctx, l, m, opts) }},
	}
	for _, st := range stages {
		s, err := st.run()
		if err == nil {
			deg.Stage = st.name
			return s, deg, nil
		}
		if ctx.Err() != nil || errors.Is(err, ErrInvalidLoop) || errors.Is(err, ErrInvalidMachine) {
			return nil, nil, err
		}
		deg.Failures = append(deg.Failures, StageFailure{Stage: st.name, Err: err})
	}
	joined := make([]error, 0, len(deg.Failures))
	for _, f := range deg.Failures {
		joined = append(joined, fmt.Errorf("%s: %w", f.Stage, f.Err))
	}
	return nil, nil, fmt.Errorf("core: loop %s: every best-effort stage failed: %w", l.Name, errors.Join(joined...))
}

// ModuloScheduleAcyclic runs only the final fallback stage: the acyclic
// list schedule of one iteration reinterpreted as a degenerate modulo
// schedule (II = schedule length, no iteration overlap). It exists for
// callers that must deliver *some* verified schedule even after a
// deadline has killed the real schedulers — the stage is deterministic,
// allocation-light, and needs no II search, so it is safe to run without
// a deadline of its own (cmd/msched's -besteffort does exactly that).
// The stress harness also uses it as the differential baseline.
func ModuloScheduleAcyclic(ctx context.Context, l *ir.Loop, m *machine.Machine, opts Options) (*Schedule, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return acyclicDegenerate(ctx, l, m, opts)
}

// acyclicDegenerate turns the acyclic list schedule of one iteration into
// a legal (if entirely unpipelined) modulo schedule by choosing an II
// large enough that (a) no reservation wraps around the MRT — so the
// linear reservation table's conflict-freedom carries over verbatim — and
// (b) every inter-iteration dependence edge is satisfied by the II*distance
// term alone. This always succeeds for loops whose distance-0 subgraph is
// acyclic, which is exactly the precondition of list scheduling.
func acyclicDegenerate(ctx context.Context, l *ir.Loop, m *machine.Machine, opts Options) (sched *Schedule, err error) {
	if l == nil {
		return nil, fmt.Errorf("core: %w: nil loop", ErrInvalidLoop)
	}
	if m == nil {
		return nil, fmt.Errorf("core: loop %s: %w: nil machine", l.Name, ErrInvalidMachine)
	}
	defer RecoverToInternal(l.Name, &err)

	var c Counters
	p, err := newProblem(ctx, l, m, opts, &c)
	if err != nil {
		return nil, err
	}
	ls, err := listsched.Schedule(l, m, p.delays)
	if err != nil {
		return nil, fmt.Errorf("core: loop %s: acyclic fallback: %w", l.Name, err)
	}
	c.SchedSteps = ls.Steps
	c.SchedStepsFinal = ls.Steps

	ii := ls.Length
	if ii < 1 {
		ii = 1
	}
	// (a) No reservation may wrap: II must exceed the last absolute cycle
	// at which any operation holds a resource.
	for i := range l.Ops {
		tab := p.opcode[i].Alternatives[ls.Alts[i]].Table
		if s := ls.Times[i] + tab.Span(); s > ii {
			ii = s
		}
	}
	// (b) Inter-iteration dependences: II*distance >= t(from)+delay-t(to).
	for ei, e := range l.Edges {
		if e.Distance == 0 {
			continue
		}
		need := ls.Times[e.From] + p.delays[ei] - ls.Times[e.To]
		if need > 0 {
			if r := (need + e.Distance - 1) / e.Distance; r > ii {
				ii = r
			}
		}
	}

	// Report the real lower bounds when they are computable, so the
	// degradation is visible as II >> MII; fall back to II otherwise.
	miiVal, resMII := ii, ii
	if bounds, berr := mii.ComputeContext(ctx, l, m, p.delays, &c.MII); berr == nil {
		miiVal, resMII = bounds.MII, bounds.ResMII
	}

	sched = &Schedule{
		Loop:    l,
		Machine: m,
		Options: opts,
		II:      ii,
		MII:     miiVal,
		ResMII:  resMII,
		Times:   ls.Times,
		Alts:    ls.Alts,
		Length:  ls.Length,
		Delays:  p.delays,
		Stats:   c,
	}
	if cerr := Check(sched); cerr != nil {
		return nil, &InternalError{
			Loop: l.Name, II: ii, Counters: c,
			Err: fmt.Errorf("acyclic fallback schedule fails verification: %w", cerr),
		}
	}
	return sched, nil
}
