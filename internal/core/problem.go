// Package core implements iterative modulo scheduling (Section 3 of the
// paper): the budgeted, backtracking operation scheduler built around the
// modulo reservation table, the HeightR priority function, the Estart
// computation over currently-scheduled predecessors, and the
// forward-progress eviction rules of FindTimeSlot.
package core

import (
	"context"
	"fmt"

	"modsched/internal/ir"
	"modsched/internal/machine"
	"modsched/internal/mii"
	"modsched/internal/scherr"
)

// PriorityKind selects the scheduling priority function. HeightR is the
// paper's choice; the others exist for ablation studies.
type PriorityKind int

const (
	// PriorityHeightR is the height-based priority of Figure 5a.
	PriorityHeightR PriorityKind = iota
	// PriorityFIFO schedules in program order.
	PriorityFIFO
	// PriorityDepth uses II-unaware height (distance terms ignored), the
	// classic acyclic list-scheduling priority applied naively.
	PriorityDepth
	// PriorityRecFirst gives absolute priority to operations on
	// non-trivial recurrence circuits (the strategy of most prior modulo
	// schedulers, which Section 3.2 contrasts with HeightR), breaking ties
	// by HeightR.
	PriorityRecFirst
)

func (p PriorityKind) String() string {
	switch p {
	case PriorityHeightR:
		return "heightr"
	case PriorityFIFO:
		return "fifo"
	case PriorityDepth:
		return "depth"
	case PriorityRecFirst:
		return "recfirst"
	default:
		return fmt.Sprintf("PriorityKind(%d)", int(p))
	}
}

// ParsePriority is the inverse of PriorityKind.String for the named
// priority functions.
func ParsePriority(s string) (PriorityKind, error) {
	for p := PriorityHeightR; p <= PriorityRecFirst; p++ {
		if p.String() == s {
			return p, nil
		}
	}
	return PriorityHeightR, fmt.Errorf("unknown priority %q", s)
}

// Options configures ModuloSchedule.
type Options struct {
	// BudgetRatio is the ratio of the maximum number of operation
	// scheduling steps attempted (before giving up on a candidate II) to
	// the number of operations in the loop. The paper finds 2 optimal for
	// its workload and uses 6 to characterize best-case quality.
	BudgetRatio float64
	// DelayModel selects the Table 1 column. Default VLIWDelays.
	DelayModel ir.DelayModel
	// MaxII caps the candidate II search. 0 means "derive a safe bound".
	MaxII int
	// Priority selects the priority function (default HeightR).
	Priority PriorityKind
	// RestartOnFailure, when set, replaces eviction with a full restart of
	// the current II attempt whenever FindTimeSlot fails (an ablation that
	// demonstrates why iterative unschedule/reschedule matters).
	RestartOnFailure bool
	// PlaceLate, when set, makes FindTimeSlot scan candidate slots from
	// MaxTime down instead of from Estart up — a crude version of the
	// lifetime-sensitive placement direction Huff's slack scheduling
	// explores (placing producers later shortens their values'
	// lifetimes). Exists for the register-pressure ablation.
	PlaceLate bool

	// scanMRT answers every MRT fit with the reference use-by-use scan
	// instead of the compiled placement masks (machine.Compiled). Only
	// this package's tests set it: the masks are bit-identical to the scan
	// (mrtbitset_test.go), which stays as their reference.
	scanMRT bool
}

// DefaultOptions returns the configuration recommended by the paper's
// conclusion (BudgetRatio 2, VLIW delays, HeightR priority).
func DefaultOptions() Options {
	return Options{BudgetRatio: 2, DelayModel: ir.VLIWDelays, Priority: PriorityHeightR}
}

// Counters aggregates the empirical-complexity measurements of Table 4
// across all phases of one or many scheduling runs.
type Counters struct {
	MII mii.Counters
	// HeightRRelax counts edge relaxations in the HeightR computation.
	HeightRRelax int64
	// EstartPredExams counts immediate-predecessor examinations during
	// Estart computation.
	EstartPredExams int64
	// FindTimeSlotIters counts iterations of the FindTimeSlot while-loop.
	FindTimeSlotIters int64
	// SchedSteps counts operation scheduling steps (Schedule calls),
	// across all candidate IIs. SchedStepsFinal counts only the steps of
	// the successful IterativeSchedule invocation.
	SchedSteps      int64
	SchedStepsFinal int64
	// Unschedules counts operations displaced from the partial schedule.
	Unschedules int64
	// IIAttempts counts IterativeSchedule invocations.
	IIAttempts int64
}

// Add accumulates other into c.
func (c *Counters) Add(other *Counters) {
	c.MII.MinDistInner += other.MII.MinDistInner
	c.MII.MinDistCalls += other.MII.MinDistCalls
	c.MII.ResMIIInspections += other.MII.ResMIIInspections
	c.MII.ProfileBuilds += other.MII.ProfileBuilds
	c.MII.ProfileProbes += other.MII.ProfileProbes
	c.HeightRRelax += other.HeightRRelax
	c.EstartPredExams += other.EstartPredExams
	c.FindTimeSlotIters += other.FindTimeSlotIters
	c.SchedSteps += other.SchedSteps
	c.SchedStepsFinal += other.SchedStepsFinal
	c.Unschedules += other.Unschedules
	c.IIAttempts += other.IIAttempts
}

// problem is the prepared, immutable scheduling problem.
type problem struct {
	ctx    context.Context // cancellation source; nil means "never canceled"
	loop   *ir.Loop
	mach   *machine.Machine
	opts   Options
	delays []int // per edge
	opcode []*machine.Opcode
	// succ/pred adjacency as edge indices, sub-sliced from one shared
	// backing array each (CSR layout) so building them costs O(1)
	// allocations instead of O(n) incremental appends.
	succ, pred [][]int
	counters   *Counters

	// scratch holds the pooled per-attempt buffers; nil outside the
	// scheduling entry points (tests, the acyclic fallback).
	scratch *scratch

	// hasSelf[i] reports whether op i has a reflexive dependence edge.
	hasSelf []bool

	// Lazily computed caches, II-independent: the dependence graph's SCC
	// condensation (the graph topology never changes across II attempts,
	// only the edge weights Delay - II*Distance do), the static priority
	// vectors, the all-ops node list, and the cross-II MinDist coefficient
	// profile.
	comps     [][]int
	fifoPrio  []int
	depthPrio []int
	nodesAll  []int
	prof      *mii.Profile
	// opOrd[i] is op i's opcode registration index on the machine — the
	// row of machine.Compiled holding its placement-mask families. altOff
	// carves the per-attempt selfConsistent memo (state.selfOK): op i's
	// alternatives occupy altOff[i] .. altOff[i+1].
	opOrd  []int
	altOff []int32
}

// profile returns the whole-graph cross-II MinDist profile, built once
// per problem. A !OK() result (coefficient cap hit) tells the caller to
// fall back to the scalar per-II Floyd-Warshall.
func (p *problem) profile() *mii.Profile {
	if p.prof == nil {
		p.prof = mii.BuildProfile(p.loop, p.delays, p.allNodes(), &p.counters.MII)
	}
	return p.prof
}

// opcodeOrder returns the per-op opcode registration indices (the rows of
// machine.Compiled) and, as a side effect, builds the altOff offsets for
// the per-attempt selfConsistent memo. Computed once per problem.
func (p *problem) opcodeOrder() []int {
	if p.opOrd == nil {
		n := p.loop.NumOps()
		p.opOrd = make([]int, n)
		p.altOff = make([]int32, n+1)
		for i, op := range p.loop.Ops {
			idx := p.mach.OpcodeIndex(op.Opcode)
			if idx < 0 {
				// MustOpcode succeeded in newProblem, so the name exists.
				panic(InvariantViolation(fmt.Sprintf("core: opcode %q vanished from machine", op.Opcode)))
			}
			p.opOrd[i] = idx
			p.altOff[i+1] = p.altOff[i] + int32(len(p.opcode[i].Alternatives))
		}
	}
	return p.opOrd
}

// condensation returns the SCCs of the dependence graph in reverse
// topological order, computed once per problem and shared by every II
// attempt's HeightR pass (and the recurrence-first priority). The II
// search seeds it with the list mii.ComputeScratch already built; other
// callers get the same list from mii.SCCs.
func (p *problem) condensation() [][]int {
	if p.comps == nil {
		p.comps = mii.SCCs(p.loop)
	}
	return p.comps
}

// fifoPriority returns the program-order priority vector (earlier ops
// first), computed once per problem.
func (p *problem) fifoPriority() []int {
	if p.fifoPrio == nil {
		p.fifoPrio = make([]int, p.loop.NumOps())
		for i := range p.fifoPrio {
			p.fifoPrio[i] = -i
		}
	}
	return p.fifoPrio
}

// allNodes returns 0..NumOps-1, cached (the slack scheduler needs it on
// every II attempt).
func (p *problem) allNodes() []int {
	if p.nodesAll == nil {
		p.nodesAll = mii.AllNodes(p.loop)
	}
	return p.nodesAll
}

// ctxErr reports the problem's cancellation state, wrapped with the loop
// for diagnosis. errors.Is(err, context.Canceled) (or DeadlineExceeded)
// holds on the result.
func (p *problem) ctxErr() error {
	if p.ctx == nil {
		return nil
	}
	if err := p.ctx.Err(); err != nil {
		return fmt.Errorf("core: loop %s: scheduling aborted: %w", p.loop.Name, err)
	}
	return nil
}

func newProblem(ctx context.Context, l *ir.Loop, m *machine.Machine, opts Options, c *Counters) (*problem, error) {
	if err := l.Validate(m); err != nil {
		return nil, fmt.Errorf("core: %w: %w", scherr.ErrInvalidLoop, err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("core: loop %s: %w: %w", l.Name, scherr.ErrInvalidMachine, err)
	}
	if opts.BudgetRatio <= 0 {
		opts.BudgetRatio = 2
	}
	delays, err := ir.Delays(l, m, opts.DelayModel)
	if err != nil {
		return nil, fmt.Errorf("core: %w: %w", scherr.ErrInvalidLoop, err)
	}
	p := &problem{
		ctx:      ctx,
		loop:     l,
		mach:     m,
		opts:     opts,
		delays:   delays,
		opcode:   make([]*machine.Opcode, l.NumOps()),
		succ:     make([][]int, l.NumOps()),
		pred:     make([][]int, l.NumOps()),
		hasSelf:  make([]bool, l.NumOps()),
		counters: c,
	}
	for i, op := range l.Ops {
		p.opcode[i] = m.MustOpcode(op.Opcode)
	}
	// CSR-style adjacency: count degrees, carve per-op sub-slices out of
	// two shared backing arrays, then fill in edge order (preserving the
	// edge-index order the schedulers iterate in).
	n := l.NumOps()
	if ne := len(l.Edges); ne > 0 {
		outDeg := make([]int, n)
		inDeg := make([]int, n)
		for _, e := range l.Edges {
			outDeg[e.From]++
			inDeg[e.To]++
		}
		succBack := make([]int, ne)
		predBack := make([]int, ne)
		so, po := 0, 0
		for i := 0; i < n; i++ {
			p.succ[i] = succBack[so : so : so+outDeg[i]]
			p.pred[i] = predBack[po : po : po+inDeg[i]]
			so += outDeg[i]
			po += inDeg[i]
		}
		for ei, e := range l.Edges {
			p.succ[e.From] = append(p.succ[e.From], ei)
			p.pred[e.To] = append(p.pred[e.To], ei)
			if e.From == e.To {
				p.hasSelf[e.From] = true
			}
		}
	}
	return p, nil
}

// Schedule is a complete modulo schedule for one loop.
type Schedule struct {
	Loop    *ir.Loop
	Machine *machine.Machine
	Options Options

	// II is the achieved initiation interval; MII, ResMII the bounds.
	II, MII, ResMII int
	// Times holds each operation's scheduled issue time (START at 0).
	Times []int
	// Alts holds the chosen alternative index per operation.
	Alts []int
	// Length is the schedule length SL of one iteration: the time of the
	// STOP pseudo-operation, i.e. when all results of the iteration are
	// available.
	Length int
	// Delays is the per-edge delay vector used (for checking/codegen).
	Delays []int

	// Stats describes the effort expended on this loop alone.
	Stats Counters
}

// StageCount is the number of kernel stages: ceil(Length/II), the number
// of concurrently executing iterations in the steady state.
func (s *Schedule) StageCount() int {
	if s.II <= 0 {
		return 0
	}
	sc := (s.Length + s.II - 1) / s.II
	if sc < 1 {
		sc = 1
	}
	return sc
}

// TimeOf returns the scheduled time of op i.
func (s *Schedule) TimeOf(i int) int { return s.Times[i] }
