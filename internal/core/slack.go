package core

import (
	"context"

	"modsched/internal/ir"
	"modsched/internal/machine"
	"modsched/internal/mii"
)

// ModuloScheduleSlack is a second modulo-scheduling algorithm built on the
// same framework: a faithful-in-spirit implementation of Huff's
// lifetime-sensitive slack scheduling (PLDI 1993, the paper's reference
// [18]), provided as a comparison point for iterative modulo scheduling.
//
// Differences from IterativeSchedule: operations are chosen by minimum
// slack (Lstart - Estart, both maintained from the placed operations via
// the MinDist matrix) rather than by HeightR; placement is bidirectional —
// an operation whose placed neighbors are mostly successors is placed as
// late as possible, one whose placed neighbors are mostly predecessors as
// early as possible — which tends to shorten value lifetimes; eviction and
// the BudgetRatio safety valve work as in the iterative scheduler.
func ModuloScheduleSlack(l *ir.Loop, m *machine.Machine, opts Options) (*Schedule, error) {
	return ModuloScheduleSlackContext(context.Background(), l, m, opts)
}

// ModuloScheduleSlackContext is ModuloScheduleSlack with cancellation,
// with the same ctx.Err() checkpoints as ModuloScheduleContext.
func ModuloScheduleSlackContext(ctx context.Context, l *ir.Loop, m *machine.Machine, opts Options) (*Schedule, error) {
	return scheduleLoop(ctx, l, m, opts, AlgoSlack)
}

// slackSchedule runs one II attempt of the slack algorithm.
func (s *state) slackSchedule(budget int) (attemptOutcome, error) {
	p := s.p
	p.counters.IIAttempts++
	for i := range p.loop.Ops {
		if !s.hasConsistentAlt(i) {
			return attemptInfeasible, nil
		}
	}

	// The full-graph MinDist matrix drives Estart/Lstart maintenance.
	// The cross-II profile factors the O(n^3) closure out of the per-II
	// path: the first attempt builds the coefficient sets, every attempt
	// (this one included) evaluates them in O(n^2 * s). Graphs that blow
	// the coefficient cap fall back to the scalar closure per II.
	var md *mii.MinDist
	var err error
	if p.scratch != nil {
		if prof := p.profile(); prof.OK() {
			if err = p.ctxErr(); err != nil {
				return attemptInfeasible, err
			}
			md = prof.Eval(&p.scratch.mii, s.ii, &p.counters.MII)
		} else {
			md, err = p.scratch.mii.MinDist(p.ctx, p.loop, p.delays, s.ii, p.allNodes(), &p.counters.MII)
		}
	} else {
		md, err = mii.ComputeMinDistContext(p.ctx, p.loop, p.delays, s.ii, p.allNodes(), &p.counters.MII)
	}
	if err != nil {
		return attemptInfeasible, err
	}
	if md.PositiveDiagonal() {
		return attemptInfeasible, nil // II below this graph's recurrence bound
	}

	stepsAtEntry := p.counters.SchedSteps
	s.scheduleAt(p.loop.Start(), 0, 0)
	budget--

	const inf = int(^uint(0) >> 2)
	for steps := 0; s.unscheduled > 0 && budget > 0; steps++ {
		if steps&ctxCheckMask == 0 {
			if err := p.ctxErr(); err != nil {
				return attemptInfeasible, err
			}
		}
		// Estart/Lstart for every unscheduled op from the placed ones.
		best, bestSlack, bestE, bestL := -1, inf, 0, 0
		for op, tm := range s.times {
			if tm != -1 {
				continue
			}
			e, lx := 0, inf
			for q, qt := range s.times {
				if qt == -1 {
					continue
				}
				if d := md.At(q, op); d != mii.NegInf && qt+d > e {
					e = qt + d
				}
				if d := md.At(op, q); d != mii.NegInf && qt-d < lx {
					lx = qt - d
				}
			}
			p.counters.EstartPredExams++
			// Effective window: resource periodicity bounds it to II slots.
			if lx > e+s.ii-1 {
				lx = e + s.ii - 1
			}
			slack := lx - e
			if slack < bestSlack || (slack == bestSlack && op < best) {
				best, bestSlack, bestE, bestL = op, slack, e, lx
			}
		}
		op := best

		// Direction: more placed successors than predecessors => the op's
		// value feeds backward pressure; place late. Otherwise early.
		placedSucc, placedPred := 0, 0
		for _, ei := range p.succ[op] {
			if e := p.loop.Edges[ei]; e.To != op && s.times[e.To] != -1 {
				placedSucc++
			}
		}
		for _, ei := range p.pred[op] {
			if e := p.loop.Edges[ei]; e.From != op && s.times[e.From] != -1 {
				placedPred++
			}
		}

		slot, alt := -1, -1
		if placedSucc > placedPred {
			for t := bestL; t >= bestE; t-- {
				p.counters.FindTimeSlotIters++
				if a := s.fittingAlternative(op, t); a >= 0 {
					slot, alt = t, a
					break
				}
			}
		} else {
			for t := bestE; t <= bestL; t++ {
				p.counters.FindTimeSlotIters++
				if a := s.fittingAlternative(op, t); a >= 0 {
					slot, alt = t, a
					break
				}
			}
		}
		if alt < 0 {
			// Forced placement with the iterative scheduler's
			// forward-progress rule and eviction.
			if s.never[op] || bestE > s.prev[op] {
				slot = bestE
			} else {
				slot = s.prev[op] + 1
			}
			alt = s.forcedAlternative(op, slot)
		}
		s.scheduleAt(op, slot, alt)
		budget--
	}
	if s.unscheduled > 0 {
		return attemptBudgetExhausted, nil
	}
	p.counters.SchedStepsFinal += p.counters.SchedSteps - stepsAtEntry
	return attemptScheduled, nil
}
