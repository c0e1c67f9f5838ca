package core

import (
	"context"
	"fmt"
	"runtime/debug"

	"modsched/internal/ir"
	"modsched/internal/machine"
	"modsched/internal/mii"
)

// Algorithm names used in errors and degradation reports.
const (
	AlgoIterative = "iterative"
	AlgoSlack     = "slack"
)

// attemptOutcome classifies one II attempt.
type attemptOutcome int

const (
	attemptScheduled attemptOutcome = iota
	attemptInfeasible
	attemptBudgetExhausted
)

// testHookPreAttempt, when non-nil, runs with the freshly created state
// before each II attempt. Tests use it to corrupt internal scheduling
// state and prove that the resulting invariant panics are contained at
// the API boundary rather than escaping to the caller.
var testHookPreAttempt func(*state)

// ModuloSchedule schedules the loop on machine m: it computes the MII and
// invokes IterativeSchedule with successively larger candidate IIs until a
// schedule is found (Figure 2). The returned Schedule is verified by
// Check before being returned.
func ModuloSchedule(l *ir.Loop, m *machine.Machine, opts Options) (*Schedule, error) {
	return ModuloScheduleContext(context.Background(), l, m, opts)
}

// ModuloScheduleContext is ModuloSchedule with cancellation: ctx.Err() is
// checked at every II bump, every few operation scheduling steps, and
// inside the MinDist/RecMII computations, so a deadline or cancel aborts a
// pathological search promptly. The returned error wraps ctx.Err().
func ModuloScheduleContext(ctx context.Context, l *ir.Loop, m *machine.Machine, opts Options) (*Schedule, error) {
	return scheduleLoop(ctx, l, m, opts, AlgoIterative)
}

// scheduleLoop is the shared II-search driver for both scheduling
// algorithms. It contains the three robustness layers of this package:
// input validation (typed ErrInvalidLoop/ErrInvalidMachine), cancellation
// checks, and panic containment (any internal invariant violation comes
// back as *InternalError instead of crashing the caller).
func scheduleLoop(ctx context.Context, l *ir.Loop, m *machine.Machine, opts Options, algo string) (sched *Schedule, err error) {
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
	// The pooled scratch holds every per-attempt buffer (state, MRT,
	// HeightR, MinDist matrices); II attempts and subsequent loops reuse
	// it instead of reallocating their working set.
	sc := getScratch()
	defer putScratch(sc)
	p.scratch = sc
	bounds, err := mii.ComputeScratch(ctx, l, m, p.delays, &c.MII, &sc.mii)
	if err != nil {
		return nil, err
	}
	p.comps = bounds.SCCs
	maxII := opts.MaxII
	if maxII <= 0 {
		maxII = safeMaxII(p)
	}
	budget := int(opts.BudgetRatio * float64(l.NumOps()))
	if budget < l.NumOps()+1 {
		budget = l.NumOps() + 1 // always enough to try each op once
	}

	exhausted := false
	for ii := bounds.MII; ii <= maxII; ii++ {
		if err := p.ctxErr(); err != nil {
			return nil, err
		}
		s := sc.newState(p, ii)
		outcome, err := s.runAttempt(algo, budget)
		if err != nil {
			return nil, err
		}
		switch outcome {
		case attemptBudgetExhausted:
			exhausted = true
			continue
		case attemptInfeasible:
			continue
		}
		// Detach the result from the pooled scratch: the state's buffers
		// are reused by the next scheduling call.
		sched = &Schedule{
			Loop:    l,
			Machine: m,
			Options: p.opts,
			II:      ii,
			MII:     bounds.MII,
			ResMII:  bounds.ResMII,
			Times:   append(make([]int, 0, len(s.times)), s.times...),
			Alts:    append(make([]int, 0, len(s.alts)), s.alts...),
			Length:  s.times[l.Stop()],
			Delays:  p.delays,
			Stats:   c,
		}
		if err := Check(sched); err != nil {
			return nil, &InternalError{
				Loop: l.Name, II: ii, Counters: c,
				Err: fmt.Errorf("produced schedule fails verification: %w", err),
			}
		}
		return sched, nil
	}
	return nil, &NoScheduleError{
		Loop:            l.Name,
		Algorithm:       algo,
		MII:             bounds.MII,
		MaxII:           maxII,
		Attempts:        c.IIAttempts,
		BudgetExhausted: exhausted,
	}
}

// runAttempt runs one II attempt with panic containment: an invariant
// violation inside the attempt (MRT corruption, impossible alternative
// selection, ...) is converted into an *InternalError carrying the loop,
// the candidate II, and the counters at the moment of failure.
func (s *state) runAttempt(algo string, budget int) (outcome attemptOutcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			outcome = attemptInfeasible
			err = &InternalError{
				Loop: s.p.loop.Name, II: s.ii, Counters: *s.p.counters,
				Panic: r, Stack: debug.Stack(),
			}
		}
	}()
	if testHookPreAttempt != nil {
		testHookPreAttempt(s)
	}
	if algo == AlgoSlack {
		return s.slackSchedule(budget)
	}
	return s.iterativeSchedule(budget)
}

// safeMaxII is an II at which scheduling is guaranteed to succeed: with II
// no smaller than the whole loop's serial span, every operation can be
// issued in its own modulo slot in dependence order.
func safeMaxII(p *problem) int {
	s := 1
	for _, d := range p.delays {
		if d > 0 {
			s += d
		}
	}
	s += p.loop.NumOps()
	return s
}

// state is the mutable scheduling state for one candidate II. Its
// buffers belong to a scratch (see scratch.go) and are reused across II
// attempts and loops.
type state struct {
	p  *problem
	ii int

	mrt   *mrt
	times []int // -1 if unscheduled
	alts  []int
	prev  []int // PrevScheduleTime
	never []bool
	prio  []int // priority value per op

	// comp holds the machine's compiled placement masks at this II
	// (machine.Compiled, shared globally); nil when Options.scanMRT asks
	// for the reference scan. selfOK is the scan path's per-attempt
	// selfConsistent memo, indexed by p.altOff[op]+ai: 0 unknown, 1
	// consistent, 2 self-colliding. The compiled path answers the same
	// question from the family's SelfOK bit.
	comp   *machine.Compiled
	selfOK []int8

	// ready is the lazy-deletion max-heap over unscheduled operations
	// (see ready.go); heapLive gates it to the iterative scheduler.
	ready    []int
	heapLive bool

	unscheduled int  // count of unscheduled ops
	forceEarly  bool // late placement disabled for the rest of the attempt
}

// newState builds a standalone state for one II attempt. Production
// scheduling goes through scratch.newState, which reuses pooled buffers;
// this allocating variant serves tests that construct state directly.
func newState(p *problem, ii int) *state {
	return new(scratch).newState(p, ii)
}

// iterativeSchedule is Figure 3: schedule operations highest-priority
// first, displacing previously scheduled operations when necessary, until
// every operation is placed or the budget is exhausted.
func (s *state) iterativeSchedule(budget int) (attemptOutcome, error) {
	p := s.p
	p.counters.IIAttempts++

	// Fast infeasibility check: an operation whose every alternative
	// self-collides on the MRT at this II can never be placed.
	for i := range p.loop.Ops {
		if !s.hasConsistentAlt(i) {
			return attemptInfeasible, nil
		}
	}

	switch p.opts.Priority {
	case PriorityHeightR:
		h, err := p.heightR(s.ii)
		if err != nil {
			return attemptInfeasible, err
		}
		s.prio = h
	case PriorityDepth:
		s.prio = p.depthPriority()
	case PriorityFIFO:
		s.prio = p.fifoPriority()
	case PriorityRecFirst:
		h, err := p.heightR(s.ii)
		if err != nil {
			return attemptInfeasible, err
		}
		s.prio = h
		// Lift every operation on a non-trivial SCC above all others.
		boost := 1
		for _, v := range h {
			if v > boost {
				boost = v
			}
		}
		for _, comp := range recurrenceComponents(p) {
			for _, op := range comp {
				s.prio[op] += boost + 1
			}
		}
	default:
		return attemptInfeasible, fmt.Errorf("core: unknown priority kind %v", p.opts.Priority)
	}

	stepsAtEntry := p.counters.SchedSteps

	// The ready heap must see the final priority vector; START's entry
	// goes stale when it is placed directly below and is skipped later.
	s.readyInit()

	// Schedule START at time 0.
	s.scheduleAt(p.loop.Start(), 0, 0)
	budget--

	for steps := 0; s.unscheduled > 0 && budget > 0; steps++ {
		// Cancellation check, amortized over scheduling steps.
		if steps&ctxCheckMask == 0 {
			if err := p.ctxErr(); err != nil {
				return attemptInfeasible, err
			}
		}
		// The late-placement variant has no convergence bias (early
		// placement is monotone in Estart; late placement can ripple
		// forever); if it is burning the budget, finish the attempt with
		// standard early placement.
		if p.opts.PlaceLate && !s.forceEarly && budget <= p.loop.NumOps() {
			s.forceEarly = true
		}
		op := s.readyPop()
		if op < 0 {
			// unscheduled > 0 guarantees a live heap entry exists.
			panic(InvariantViolation("core: ready heap empty with unscheduled operations"))
		}
		estart := s.calculateEarlyStart(op)
		minTime := estart
		maxTime := minTime + s.ii - 1
		slot, alt := s.findTimeSlot(op, minTime, maxTime)
		if alt < 0 {
			// Forced placement: no conflict-free slot exists.
			if p.opts.RestartOnFailure {
				// Ablation: give up on this II attempt immediately.
				return attemptInfeasible, nil
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

// ctxCheckMask amortizes ctx.Err() checks: one check every
// ctxCheckMask+1 operation scheduling steps.
const ctxCheckMask = 15

func (s *state) hasConsistentAlt(op int) bool {
	for ai := range s.p.opcode[op].Alternatives {
		if s.altSelfConsistent(op, ai) {
			return true
		}
	}
	return false
}

// altSelfConsistent reports whether alternative ai of op can ever be
// placed at this II (mrt.selfConsistent), answered from the compiled
// family's SelfOK bit or, on the scan path, from a per-attempt memo so
// forcedAlternative stops recomputing the O(uses²) check per
// displacement.
func (s *state) altSelfConsistent(op, ai int) bool {
	if s.comp != nil {
		return s.comp.Alts(s.p.opOrd[op])[ai].SelfOK
	}
	idx := int(s.p.altOff[op]) + ai
	if v := s.selfOK[idx]; v != 0 {
		return v == 1
	}
	ok := s.mrt.selfConsistent(s.p.opcode[op].Alternatives[ai].Table)
	if ok {
		s.selfOK[idx] = 1
	} else {
		s.selfOK[idx] = 2
	}
	return ok
}

// highestPriorityOperation returns the unscheduled operation with the
// highest priority; ties break toward the smaller operation index, which
// keeps the scheduler deterministic. This linear scan is the reference
// picker; production picking goes through the ready heap (ready.go),
// which realizes the same total order in O(log n) per pick.
// BenchmarkPickOp compares the two.
func (s *state) highestPriorityOperation() int {
	best := -1
	for i, t := range s.times {
		if t != -1 {
			continue
		}
		if best == -1 || s.prio[i] > s.prio[best] {
			best = i
		}
	}
	return best
}

// calculateEarlyStart is Figure 5b: the earliest issue time permitted by
// the currently scheduled immediate predecessors.
func (s *state) calculateEarlyStart(op int) int {
	estart := 0
	for _, ei := range s.p.pred[op] {
		s.p.counters.EstartPredExams++
		e := s.p.loop.Edges[ei]
		if e.From == op {
			continue // self edges cannot constrain the first placement
		}
		qt := s.times[e.From]
		if qt == -1 {
			continue // unscheduled predecessor contributes 0
		}
		if t := qt + s.p.delays[ei] - s.ii*e.Distance; t > estart {
			estart = t
		}
	}
	return estart
}

// calculateLateStart is the dual of calculateEarlyStart, used by the
// lifetime-sensitive placement variant: the latest issue time permitted by
// the currently scheduled immediate successors.
func (s *state) calculateLateStart(op int) int {
	const inf = int(^uint(0) >> 2)
	lstart := inf
	for _, ei := range s.p.succ[op] {
		e := s.p.loop.Edges[ei]
		if e.To == op {
			continue
		}
		qt := s.times[e.To]
		if qt == -1 {
			continue
		}
		if t := qt - s.p.delays[ei] + s.ii*e.Distance; t < lstart {
			lstart = t
		}
	}
	return lstart
}

// findTimeSlot is Figure 4. It returns the chosen slot and the fitting
// alternative index, or (forcedSlot, -1) when every candidate slot has a
// resource conflict, in which case the slot follows the forward-progress
// rule: MinTime if this is the first placement or MinTime exceeds the
// previous schedule time, else previous time + 1.
func (s *state) findTimeSlot(op, minTime, maxTime int) (int, int) {
	if s.p.opts.PlaceLate && !s.forceEarly {
		// Lifetime-sensitive variant: place as late as the currently
		// scheduled successors allow (their constraints are honored
		// up front rather than by displacement, which keeps the
		// iteration convergent), scanning downward.
		last := maxTime
		if ls := s.calculateLateStart(op); ls < last {
			last = ls
		}
		if last < minTime-1 {
			last = minTime - 1 // successors too tight; only the upward scan remains
		}
		for curr := last; curr >= minTime; curr-- {
			s.p.counters.FindTimeSlotIters++
			if alt := s.fittingAlternative(op, curr); alt >= 0 {
				return curr, alt
			}
		}
		// Fall through to the standard upward scan above Lstart.
		for curr := last + 1; curr <= maxTime; curr++ {
			s.p.counters.FindTimeSlotIters++
			if alt := s.fittingAlternative(op, curr); alt >= 0 {
				return curr, alt
			}
		}
	}
	for curr := minTime; curr <= maxTime; curr++ {
		s.p.counters.FindTimeSlotIters++
		if alt := s.fittingAlternative(op, curr); alt >= 0 {
			// Dependence conflicts with successors are ignored here; they
			// are resolved by displacement in scheduleAt.
			return curr, alt
		}
	}
	if s.never[op] || minTime > s.prev[op] {
		return minTime, -1
	}
	return s.prev[op] + 1, -1
}

// fittingAlternative returns the first alternative of op that has no
// resource conflict at time t, or -1.
func (s *state) fittingAlternative(op, t int) int {
	if s.comp != nil {
		fams := s.comp.Alts(s.p.opOrd[op])
		row := t % s.ii
		for ai := range fams {
			if s.mrt.fitsMask(row, &fams[ai]) {
				return ai
			}
		}
		return -1
	}
	oc := s.p.opcode[op]
	for ai, alt := range oc.Alternatives {
		if s.mrt.fits(t, alt.Table) {
			return ai
		}
	}
	return -1
}

// forcedAlternative implements Section 3.4's resolution when an operation
// must displace others: every operation that conflicts with the use of
// any alternative at the chosen slot is unscheduled, and the operation is
// then placed using its first self-consistent alternative.
func (s *state) forcedAlternative(op, slot int) int {
	oc := s.p.opcode[op]
	chosen := -1
	for ai, alt := range oc.Alternatives {
		if !s.altSelfConsistent(op, ai) {
			continue
		}
		if chosen == -1 {
			chosen = ai
		}
		for _, victim := range s.conflictVictims(slot, alt.Table) {
			s.unschedule(victim)
		}
	}
	if chosen == -1 {
		// hasConsistentAlt guarantees this cannot happen; if it does, the
		// violation is recovered into an *InternalError at the API boundary.
		panic(InvariantViolation(fmt.Sprintf("core: op %d has no self-consistent alternative at II=%d", op, s.ii)))
	}
	return chosen
}

// scheduleAt places op at the given slot using alternative alt,
// displacing (a) any operations still holding conflicting reservations
// and (b) any scheduled successors whose dependence constraints the new
// placement violates (Section 3.4). It also updates the bookkeeping that
// guarantees forward progress.
func (s *state) scheduleAt(op, slot, alt int) {
	p := s.p
	tab := p.opcode[op].Alternatives[alt].Table

	// Resource displacement (no-ops if findTimeSlot found a free slot).
	for _, victim := range s.conflictVictims(slot, tab) {
		s.unschedule(victim)
	}
	s.mrt.place(op, slot, tab)
	s.times[op] = slot
	s.alts[op] = alt
	s.prev[op] = slot
	s.never[op] = false
	s.unscheduled--
	p.counters.SchedSteps++

	// Dependence displacement: successors scheduled too early relative to
	// the new placement. (Predecessor constraints were honored through
	// Estart; the forced slot is never below Estart.)
	for _, ei := range p.succ[op] {
		e := p.loop.Edges[ei]
		if e.To == op {
			continue
		}
		qt := s.times[e.To]
		if qt == -1 {
			continue
		}
		if qt < slot+p.delays[ei]-s.ii*e.Distance {
			s.unschedule(e.To)
		}
	}
}

// unschedule reverses scheduleAt's placement of op.
func (s *state) unschedule(op int) {
	if s.times[op] == -1 {
		return
	}
	tab := s.p.opcode[op].Alternatives[s.alts[op]].Table
	s.mrt.remove(op, s.times[op], tab)
	s.times[op] = -1
	s.alts[op] = -1
	s.unscheduled++
	s.readyPush(op)
	s.p.counters.Unschedules++
}

// ResourceTable returns the reservation table chosen for op by the final
// schedule.
func (s *Schedule) ResourceTable(op int) machine.ReservationTable {
	oc := s.Machine.MustOpcode(s.Loop.Ops[op].Opcode)
	return oc.Alternatives[s.Alts[op]].Table
}
