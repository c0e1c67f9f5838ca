// Package modsched is a from-scratch implementation of iterative modulo
// scheduling — the software-pipelining algorithm of B. R. Rau,
// "Iterative Modulo Scheduling: An Algorithm For Software Pipelining
// Loops" (MICRO-27, 1994) — together with every substrate the paper's
// system depends on: machine models with reservation tables and
// alternatives, a dependence-graph loop IR in dynamic single assignment
// form, the MII lower bounds (ResMII and the MinDist-based RecMII), an
// acyclic list-scheduling baseline, kernel-only and prologue/epilogue code
// generation (rotating-register allocation and modulo variable expansion),
// and a cycle-accurate VLIW simulator used to prove generated code
// semantically equivalent to a sequential reference interpreter.
//
// # Quick start
//
//	m := modsched.Cydra5()
//	b := modsched.NewBuilder("daxpy", m)
//	xi := b.Future()
//	b.DefineAsImm(xi, "aadd", 8, xi.Back(1))
//	x := b.Define("load", xi)
//	...
//	loop, err := b.Build()
//	sched, err := modsched.Compile(ctx, loop, m, modsched.DefaultOptions())
//	fmt.Println(sched.II, sched.MII, sched.Length)
//
// The experiment harness reproducing the paper's Tables 3-4 and Figure 6
// lives in cmd/experiments; see EXPERIMENTS.md for paper-vs-measured
// results.
package modsched

import (
	"context"

	"modsched/internal/backsub"
	"modsched/internal/codegen"
	"modsched/internal/core"
	"modsched/internal/ifconv"
	"modsched/internal/ir"
	"modsched/internal/kernels"
	"modsched/internal/listsched"
	"modsched/internal/loopgen"
	"modsched/internal/looplang"
	"modsched/internal/machine"
	"modsched/internal/mii"
	"modsched/internal/modvar"
	"modsched/internal/schedcache"
	"modsched/internal/unroll"
	"modsched/internal/vliw"
)

// Machine description types.
type (
	// Machine is a target processor description: resources, opcodes,
	// reservation tables.
	Machine = machine.Machine
	// Opcode is one operation-repertoire entry.
	Opcode = machine.Opcode
	// Alternative is one functional-unit choice for an opcode.
	Alternative = machine.Alternative
	// ReservationTable is an opcode's resource usage pattern.
	ReservationTable = machine.ReservationTable
	// ResourceUse is one (resource, relative cycle) reservation.
	ResourceUse = machine.ResourceUse
	// Resource indexes a machine resource.
	Resource = machine.Resource
	// UnitConfig parameterizes the Generic test machine.
	UnitConfig = machine.UnitConfig
)

// Loop IR types.
type (
	// Loop is a scheduling problem: operations bracketed by START/STOP
	// plus the dependence graph and profile weights.
	Loop = ir.Loop
	// Operation is one loop-body operation.
	Operation = ir.Operation
	// Edge is a dependence edge with kind and iteration distance.
	Edge = ir.Edge
	// Builder constructs loops in dynamic single assignment form.
	Builder = ir.Builder
	// Value is a builder datum (operation result, invariant, or future).
	Value = ir.Value
	// Reg is an expanded virtual register number.
	Reg = ir.Reg
	// DepKind classifies dependence edges.
	DepKind = ir.DepKind
	// DelayModel selects the Table 1 delay column.
	DelayModel = ir.DelayModel
)

// Scheduling types.
type (
	// Options configures the modulo scheduler.
	Options = core.Options
	// Schedule is a verified modulo schedule.
	Schedule = core.Schedule
	// Counters holds the empirical-complexity instrumentation.
	Counters = core.Counters
	// PriorityKind selects the scheduling priority function.
	PriorityKind = core.PriorityKind
	// MIIResult carries the Section 2 lower bounds.
	MIIResult = mii.Result
	// ListSchedule is the acyclic list-scheduling baseline result.
	ListSchedule = listsched.Result
)

// Code generation and execution types.
type (
	// Kernel is kernel-only code for rotating-register machines.
	Kernel = codegen.Kernel
	// Flat is explicit prologue/kernel/epilogue code after modulo
	// variable expansion.
	Flat = modvar.Flat
	// RunSpec supplies live-in state for execution.
	RunSpec = vliw.RunSpec
	// RunResult is the observable outcome of running a loop.
	RunResult = vliw.Result
	// GenConfig tunes the synthetic corpus generator.
	GenConfig = loopgen.Config
)

// Dependence kinds.
const (
	Flow    = ir.Flow
	Anti    = ir.Anti
	Output  = ir.Output
	Mem     = ir.Mem
	Control = ir.Control
)

// Delay models (Table 1 columns).
const (
	VLIWDelays         = ir.VLIWDelays
	ConservativeDelays = ir.ConservativeDelays
)

// Priority functions.
const (
	PriorityHeightR = core.PriorityHeightR
	PriorityFIFO    = core.PriorityFIFO
	PriorityDepth   = core.PriorityDepth
)

// NoReg is the absent register.
const NoReg = ir.NoReg

// Cydra5 returns the Table 2 machine model used throughout the paper's
// evaluation.
func Cydra5() *Machine { return machine.Cydra5() }

// Generic returns a clean-RISC machine with simple reservation tables.
func Generic(cfg UnitConfig) *Machine { return machine.Generic(cfg) }

// DefaultUnitConfig is the default Generic configuration.
func DefaultUnitConfig() UnitConfig { return machine.DefaultUnitConfig() }

// Tiny returns a minimal machine for hand-checkable examples.
func Tiny() *Machine { return machine.Tiny() }

// NewMachine creates an empty machine description.
func NewMachine(name string, resources ...string) *Machine {
	return machine.New(name, resources...)
}

// NewTable builds a reservation table from explicit uses.
func NewTable(uses ...ResourceUse) (ReservationTable, error) { return machine.NewTable(uses...) }

// MustTable is NewTable that panics on error, for machine literals.
func MustTable(uses ...ResourceUse) ReservationTable { return machine.MustTable(uses...) }

// SimpleTableFor reserves a single resource at issue only.
func SimpleTableFor(r Resource) ReservationTable { return machine.SimpleTable(r) }

// BlockTableFor reserves a single resource for cycles [0, n).
func BlockTableFor(r Resource, n int) ReservationTable { return machine.BlockTable(r, n) }

// NewBuilder creates a loop builder targeting m.
func NewBuilder(name string, m *Machine) *Builder { return ir.NewBuilder(name, m) }

// DefaultOptions is the paper's recommended configuration: BudgetRatio 2,
// VLIW delays, HeightR priority.
func DefaultOptions() Options { return core.DefaultOptions() }

// Compile modulo-schedules the loop, trying II = MII, MII+1, ... until a
// schedule is found; the result is verified before being returned. The
// scheduler polls ctx between scheduling steps, at every II bump, and
// inside the MinDist recurrence analysis, and returns an error wrapping
// ctx.Err() once the context is done. A nil ctx behaves like
// context.Background().
func Compile(ctx context.Context, l *Loop, m *Machine, opts Options) (*Schedule, error) {
	return core.ModuloScheduleContext(ctx, l, m, opts)
}

// CompileSlack schedules with the lifetime-sensitive slack algorithm
// (Huff, PLDI 1993 — the paper's reference [18]) instead of iterative
// modulo scheduling; same framework, verification, options, and
// cancellation as Compile.
func CompileSlack(ctx context.Context, l *Loop, m *Machine, opts Options) (*Schedule, error) {
	return core.ModuloScheduleSlackContext(ctx, l, m, opts)
}

// Memoizing compile cache (see internal/schedcache). Keys are
// structural — canonical loop text, machine fingerprint, options — so
// clones, re-parses, and renamed copies of a loop all share one entry.
type (
	// CompileCache memoizes compilation results with LRU eviction and
	// singleflight de-duplication of concurrent identical compiles.
	CompileCache = schedcache.Cache
	// CacheStats reports a cache's hit/miss/inflight/eviction counters.
	CacheStats = schedcache.Stats
)

// NewCompileCache returns a compile cache holding at most capacity
// entries (a default capacity if capacity <= 0).
func NewCompileCache(capacity int) *CompileCache { return schedcache.New(capacity) }

// CompileBestEffort is the graceful-degradation entry point: iterative
// modulo scheduling, then slack scheduling, then an acyclic list schedule
// reinterpreted as a degenerate modulo schedule (II = schedule length, no
// overlap). Every returned schedule is verified by CheckSchedule; the
// Degradation report names the stage that produced it and carries the
// earlier stages' failures.
//
// Cancellation is respected, not degraded around: once ctx is done the
// fallback chain stops and the cancellation error is returned. A non-nil
// cache memoizes the result: a repeated compilation of a structurally
// identical loop returns a deep copy of the cached schedule instead of
// re-running the II search. A nil cache compiles uncached; a nil ctx
// behaves like context.Background().
func CompileBestEffort(ctx context.Context, cache *CompileCache, l *Loop, m *Machine, opts Options) (*Schedule, *Degradation, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cache == nil || l == nil || m == nil {
		// A nil loop or machine has no cache key; the scheduler rejects
		// it with the typed error.
		return core.ModuloScheduleBestEffort(ctx, l, m, opts)
	}
	return cache.Do(ctx, l, m, opts, func() (*Schedule, *Degradation, error) {
		return core.ModuloScheduleBestEffort(ctx, l, m, opts)
	})
}

// Sentinel errors for dispatching on compilation failures with errors.Is.
// Structured details (attempt counts, the panicking II, parse positions)
// travel on the concrete types below, reachable with errors.As.
var (
	// ErrNoSchedule: the scheduler exhausted every II up to MaxII.
	ErrNoSchedule = core.ErrNoSchedule
	// ErrBudgetExhausted: at least one II attempt stopped on its operation
	// budget rather than on proven infeasibility (matched alongside
	// ErrNoSchedule on the same error).
	ErrBudgetExhausted = core.ErrBudgetExhausted
	// ErrInvalidLoop: the input loop fails validation.
	ErrInvalidLoop = core.ErrInvalidLoop
	// ErrInvalidMachine: the machine description fails validation.
	ErrInvalidMachine = core.ErrInvalidMachine
	// ErrInternal: an internal invariant was violated; the failure was
	// contained at the API boundary and converted into this error.
	ErrInternal = core.ErrInternal
)

// Error detail types.
type (
	// NoScheduleError reports a scheduling failure with the searched II
	// range and effort counters; wraps ErrNoSchedule (and
	// ErrBudgetExhausted when the budget cut off any attempt).
	NoScheduleError = core.NoScheduleError
	// InternalError carries the recovered panic (or failed verification)
	// with the loop name, II, and counters at the point of failure; wraps
	// ErrInternal.
	InternalError = core.InternalError
	// Degradation reports which best-effort stage produced a schedule and
	// why the earlier stages failed.
	Degradation = core.Degradation
	// StageFailure is one failed stage inside a Degradation report.
	StageFailure = core.StageFailure
	// ParseError is a loop-format syntax error with a 1-based line and
	// (where known) column; every ParseLoop error is or wraps one.
	ParseError = looplang.ParseError
)

// CheckSchedule re-verifies a schedule against all dependence and modulo
// resource constraints.
func CheckSchedule(s *Schedule) error { return core.Check(s) }

// ComputeMII computes ResMII, the production MII and the SCC structure
// for a loop (Section 2 of the paper).
func ComputeMII(l *Loop, m *Machine, model DelayModel) (*MIIResult, error) {
	delays, err := ir.Delays(l, m, model)
	if err != nil {
		return nil, err
	}
	return mii.Compute(l, m, delays, nil)
}

// ListSchedules runs the acyclic list-scheduling baseline over the
// distance-0 subgraph.
func ListSchedules(l *Loop, m *Machine, model DelayModel) (*ListSchedule, error) {
	delays, err := ir.Delays(l, m, model)
	if err != nil {
		return nil, err
	}
	return listsched.Schedule(l, m, delays)
}

// GenerateKernel lowers a schedule to kernel-only code with rotating
// registers and stage predicates.
func GenerateKernel(s *Schedule) (*Kernel, error) { return codegen.GenerateKernel(s) }

// GenerateFlat lowers a schedule to explicit prologue/kernel/epilogue code
// via modulo variable expansion, for the given trip count (see PlanUnroll
// and ValidTrips).
func GenerateFlat(s *Schedule, trips int64) (*Flat, error) { return modvar.Generate(s, trips) }

// PlanUnroll returns the kernel unroll factor modulo variable expansion
// needs for this schedule.
func PlanUnroll(s *Schedule) (int, error) { return modvar.PlanUnroll(s) }

// ValidTrips rounds a trip count up to one the explicit schema accepts.
func ValidTrips(sc, u int, want int64) int64 { return modvar.ValidTrips(sc, u, want) }

// RunReference executes a loop on the sequential reference interpreter.
func RunReference(l *Loop, spec RunSpec) (*RunResult, error) { return vliw.RunReference(l, spec) }

// RunKernel executes kernel-only code on the cycle-accurate simulator.
func RunKernel(k *Kernel, m *Machine, spec RunSpec) (*RunResult, error) {
	return vliw.RunKernel(k, m, spec)
}

// RunFlat executes expanded prologue/kernel/epilogue code on the
// cycle-accurate simulator.
func RunFlat(f *Flat, m *Machine, spec RunSpec) (*RunResult, error) {
	return vliw.RunFlat(f, m, spec)
}

// RunFlatAnyTrips executes the explicit schema for an arbitrary trip count
// by preconditioning: remainder iterations run as scalar code, then the
// pipelined code takes over with live state threaded through.
func RunFlatAnyTrips(l *Loop, m *Machine, sched *Schedule, spec RunSpec) (*RunResult, error) {
	return vliw.RunFlatAnyTrips(l, m, sched, spec)
}

// RunKernelWhile executes kernel-only code for a WHILE-loop (unknown trip
// count) with speculative issue: the loop's brtop must consume a continue
// value, and speculative side effects must be predicated by the loop's own
// continue chain. maxTrips bounds runaway loops.
func RunKernelWhile(k *Kernel, m *Machine, spec RunSpec, maxTrips int64) (*RunResult, error) {
	return vliw.RunKernelWhile(k, m, spec, maxTrips)
}

// ParseLoop parses the textual loop format (see internal/looplang docs).
func ParseLoop(src string, m *Machine) (*Loop, error) { return looplang.Parse(src, m) }

// PrintLoop renders a loop in the textual format.
func PrintLoop(l *Loop) string { return looplang.Print(l) }

// LivermoreKernels returns the hand-translated Livermore kernel suite.
func LivermoreKernels(m *Machine) ([]*Loop, error) { return kernels.All(m) }

// SyntheticCorpus generates the seeded synthetic loop corpus calibrated to
// the paper's Table 3 population statistics.
func SyntheticCorpus(cfg GenConfig, m *Machine) ([]*Loop, error) { return loopgen.Generate(cfg, m) }

// DefaultGenConfig is the corpus configuration used by the experiments
// (1300 synthetic loops; the 27 Livermore kernels bring the total to the
// paper's 1327).
func DefaultGenConfig() GenConfig { return loopgen.DefaultConfig() }

// PaperCorpus returns the full 1327-loop stand-in corpus: 1300 synthetic
// loops plus the 27 Livermore kernels.
func PaperCorpus(m *Machine) ([]*Loop, error) {
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

// Preprocessing and baseline transformations (the steps the paper's flow
// applies around the scheduler).
type (
	// Region is a structured (branching) loop body for IF-conversion.
	Region = ifconv.Region
	// Stmt and its implementations build Regions.
	Stmt = ifconv.Stmt
	// Assign, IfStmt, StoreStmt are the Region statement forms.
	Assign    = ifconv.Assign
	IfStmt    = ifconv.If
	StoreStmt = ifconv.Store
	// Ref names a value inside a Region.
	Ref = ifconv.Ref
	// IfConvResult is an IF-converted loop plus its name/register maps.
	IfConvResult = ifconv.Result
	// RegionSpec supplies live-in state for structured execution.
	RegionSpec = ifconv.Spec
	// BackSubRewrite records one back-substituted induction.
	BackSubRewrite = backsub.Rewrite
)

// IfConvert converts a structured region into the predicated single-block
// loop the scheduler consumes (see internal/ifconv).
func IfConvert(rgn *Region, m *Machine) (*IfConvResult, error) { return ifconv.Convert(rgn, m) }

// RunStructured executes a structured region directly (the semantics
// IF-conversion must preserve).
func RunStructured(rgn *Region, spec RegionSpec) (*ifconv.Outcome, error) {
	return ifconv.RunStructured(rgn, spec)
}

// ReverseIfConvert regenerates structured control flow from a predicated
// loop (for machines without predicated execution); expandSel also turns
// select operations into if/else assignments. It returns the region and
// the name-to-register mapping.
func ReverseIfConvert(l *Loop, expandSel bool) (*Region, map[string]Reg, error) {
	return ifconv.ReverseIfConvert(l, expandSel)
}

// BackSubstitute rewrites closed-form inductions (x = x[-d] + imm) so no
// such recurrence forces the II above targetII.
func BackSubstitute(l *Loop, m *Machine, targetII int) (*Loop, []BackSubRewrite, error) {
	return backsub.Apply(l, m, targetII)
}

// ExtendHist extends an induction's pre-entry history after
// back-substitution.
func ExtendHist(hist []float64, imm int64, oldDist, newDist int) []float64 {
	return backsub.ExtendHist(hist, imm, oldDist, newDist)
}

// UnrollLoop replicates the loop body k times (the unroll-before-
// scheduling baseline of Section 5).
func UnrollLoop(l *Loop, k int) (*Loop, error) { return unroll.Unroll(l, k) }
