package ir

import (
	"fmt"
	"slices"

	"modsched/internal/machine"
)

// Builder constructs Loops in dynamic single assignment form. Every
// Define call produces a fresh EVR; cross-iteration references are written
// Value.Back(k), meaning "the value this EVR held k iterations ago", which
// becomes a flow dependence of distance k. Recurrences whose use precedes
// the definition textually are expressed with Future/DefineAs.
//
//	b := ir.NewBuilder("dotproduct", mach)
//	ai := b.Future()                                  // a's address EVR
//	av := b.DefineAs(ai, "aadd", ai.Back(1))          // ai = ai[-1] + 8
//	x := b.Define("load", av)
//	...
//	loop, err := b.Build()
type Builder struct {
	name string
	mach *machine.Machine

	ops        []bOp
	vals       []Value // backs every op's srcs
	futures    []int   // future id -> op index, or -1 while unresolved
	extraEdges []protoEdge
	errs       []error

	pred    Value
	hasPred bool

	nextReg    Reg
	invariants map[string]Reg

	entryFreq, loopFreq int64
}

type bOp struct {
	opcode  string
	srcs    []Value
	pred    Value
	hasPred bool
	dest    Reg
	imm     int64
	comment string
}

type protoEdge struct {
	from, to int // builder op indices
	kind     DepKind
	distance int
	override *int
}

type vkind int

const (
	vNone vkind = iota
	vOp
	vFuture
	vInvariant
)

// Value is a reference to a datum inside the builder: the result of an
// operation, a loop-invariant input, or a not-yet-defined future. The zero
// Value is invalid.
type Value struct {
	kind vkind
	idx  int
	reg  Reg // for invariants
	dist int
}

// Back returns a reference to this value as computed k iterations earlier.
func (v Value) Back(k int) Value {
	v.dist += k
	return v
}

// Valid reports whether the value was produced by a Builder.
func (v Value) Valid() bool { return v.kind != vNone }

// Op is a handle on a built operation, used to attach explicit dependence
// edges (memory ordering and the like).
type Op int

// NewBuilder creates a builder targeting machine m. The machine is used to
// validate opcode names as operations are added.
func NewBuilder(name string, m *machine.Machine) *Builder {
	return &Builder{
		name:       name,
		mach:       m,
		nextReg:    1, // register 0 is NoReg
		invariants: make(map[string]Reg),
		entryFreq:  1,
		loopFreq:   100,
	}
}

func (b *Builder) errf(format string, args ...any) {
	b.errs = append(b.errs, fmt.Errorf("builder %s: "+format, append([]any{b.name}, args...)...))
}

// Grow reserves room for ops more operations reading operands source
// values between them, so a caller that knows the loop's size (a parser)
// adds its operations without regrowing the builder.
func (b *Builder) Grow(ops, operands int) {
	b.ops = slices.Grow(b.ops, ops)
	b.futures = slices.Grow(b.futures, ops)
	b.vals = slices.Grow(b.vals, operands)
}

// SetProfile sets the profile weights used by the execution-time metric.
func (b *Builder) SetProfile(entryFreq, loopFreq int64) {
	b.entryFreq, b.loopFreq = entryFreq, loopFreq
}

// Invariant declares (or retrieves) a loop-invariant input value by name.
// Invariants live in static registers and generate no dependence edges.
func (b *Builder) Invariant(name string) Value {
	r, ok := b.invariants[name]
	if !ok {
		r = b.nextReg
		b.nextReg++
		b.invariants[name] = r
	}
	return Value{kind: vInvariant, idx: -1, reg: r}
}

// Future creates a forward reference that must later be bound with
// DefineAs. It allows recurrences where the use is written before the
// definition.
func (b *Builder) Future() Value {
	b.futures = append(b.futures, -1)
	return Value{kind: vFuture, idx: len(b.futures) - 1}
}

// Define adds an operation producing a fresh value.
func (b *Builder) Define(opcode string, srcs ...Value) Value {
	return b.define(-1, opcode, 0, srcs)
}

// DefineImm adds an operation with an immediate operand producing a fresh
// value (e.g. an address increment by a constant stride).
func (b *Builder) DefineImm(opcode string, imm int64, srcs ...Value) Value {
	return b.define(-1, opcode, imm, srcs)
}

// DefineAs binds a Future created earlier to a new defining operation and
// returns the same value (with distance 0).
func (b *Builder) DefineAs(future Value, opcode string, srcs ...Value) Value {
	if future.kind != vFuture {
		b.errf("DefineAs target is not a Future")
		return future
	}
	return b.define(future.idx, opcode, 0, srcs)
}

// DefineAsImm is DefineAs with an immediate operand.
func (b *Builder) DefineAsImm(future Value, opcode string, imm int64, srcs ...Value) Value {
	if future.kind != vFuture {
		b.errf("DefineAsImm target is not a Future")
		return future
	}
	return b.define(future.idx, opcode, imm, srcs)
}

func (b *Builder) define(futureID int, opcode string, imm int64, srcs []Value) Value {
	b.checkOpcode(opcode)
	op := bOp{
		opcode:  opcode,
		srcs:    b.keep(srcs),
		pred:    b.pred,
		hasPred: b.hasPred,
		dest:    b.nextReg,
		imm:     imm,
	}
	b.nextReg++
	b.ops = append(b.ops, op)
	idx := len(b.ops) - 1
	if futureID >= 0 {
		if b.futures[futureID] != -1 {
			b.errf("future %d bound twice", futureID)
		}
		b.futures[futureID] = idx
	}
	return Value{kind: vOp, idx: idx}
}

// Effect adds an operation with no register result (store, branch).
func (b *Builder) Effect(opcode string, srcs ...Value) Op {
	return b.effect(opcode, 0, srcs)
}

// EffectImm is Effect with an immediate operand.
func (b *Builder) EffectImm(opcode string, imm int64, srcs ...Value) Op {
	return b.effect(opcode, imm, srcs)
}

func (b *Builder) effect(opcode string, imm int64, srcs []Value) Op {
	b.checkOpcode(opcode)
	b.ops = append(b.ops, bOp{
		opcode:  opcode,
		srcs:    b.keep(srcs),
		pred:    b.pred,
		hasPred: b.hasPred,
		dest:    NoReg,
		imm:     imm,
	})
	return Op(len(b.ops) - 1)
}

// keep copies an op's operands into the builder's arena. Each op's slice
// is capped at its length, so no append can reach a neighbour's.
func (b *Builder) keep(srcs []Value) []Value {
	if len(srcs) == 0 {
		return nil
	}
	lo := len(b.vals)
	b.vals = append(b.vals, srcs...)
	return b.vals[lo:len(b.vals):len(b.vals)]
}

// Comment attaches provenance text to the most recently added operation.
func (b *Builder) Comment(text string) {
	if len(b.ops) > 0 {
		b.ops[len(b.ops)-1].comment = text
	}
}

func (b *Builder) checkOpcode(opcode string) {
	if opcode == "START" || opcode == "STOP" {
		b.errf("pseudo-opcode %q may not be added explicitly", opcode)
		return
	}
	if b.mach != nil {
		if _, ok := b.mach.Opcode(opcode); !ok {
			b.errf("unknown opcode %q", opcode)
		}
	}
}

// SetPred makes subsequent operations predicated on v (which must be a
// predicate-producing value). ClearPred removes the predicate.
func (b *Builder) SetPred(v Value) {
	b.pred = v
	b.hasPred = true
}

// ClearPred removes the current predicate.
func (b *Builder) ClearPred() {
	b.pred = Value{}
	b.hasPred = false
}

// RegOf returns the register a value lives in (the defining operation's
// destination for computed values, the invariant register otherwise).
// Unresolved futures report NoReg and record an error.
func (b *Builder) RegOf(v Value) Reg {
	_, _, reg, ok := b.resolve(v)
	if !ok {
		return NoReg
	}
	return reg
}

// OpOf returns the operation handle of a value, for attaching explicit
// edges. It is an error to call it on invariants or unresolved futures.
func (b *Builder) OpOf(v Value) Op {
	switch v.kind {
	case vOp:
		return Op(v.idx)
	case vFuture:
		if b.futures[v.idx] >= 0 {
			return Op(b.futures[v.idx])
		}
		b.errf("OpOf on unresolved future")
	default:
		b.errf("OpOf on non-operation value")
	}
	return Op(-1)
}

// Dep adds an explicit dependence edge between two operations.
func (b *Builder) Dep(from, to Op, kind DepKind, distance int) {
	b.extraEdges = append(b.extraEdges, protoEdge{
		from: int(from), to: int(to), kind: kind, distance: distance,
	})
}

// DepDelay adds an explicit dependence edge with an overridden delay.
func (b *Builder) DepDelay(from, to Op, kind DepKind, distance, delay int) {
	d := delay
	b.extraEdges = append(b.extraEdges, protoEdge{
		from: int(from), to: int(to), kind: kind, distance: distance, override: &d,
	})
}

// resolve maps a Value to the Loop op index defining it (or -1 for
// invariants) plus the reference distance.
func (b *Builder) resolve(v Value) (opIdx int, dist int, reg Reg, ok bool) {
	switch v.kind {
	case vOp:
		return v.idx + 1, v.dist, b.ops[v.idx].dest, true // +1 for START
	case vFuture:
		if b.futures[v.idx] < 0 {
			b.errf("unresolved future used as operand")
			return 0, 0, NoReg, false
		}
		return b.futures[v.idx] + 1, v.dist, b.ops[b.futures[v.idx]].dest, true
	case vInvariant:
		return -1, 0, v.reg, true
	default:
		b.errf("invalid (zero) Value used as operand")
		return 0, 0, NoReg, false
	}
}

// Build assembles the Loop: START and STOP pseudo-operations are added and
// connected to every real operation, value references become flow edges,
// and explicit edges are appended. The loop is validated before return.
func (b *Builder) Build() (*Loop, error) {
	n := len(b.ops)
	if n == 0 {
		b.errf("empty loop body")
	}
	for fid, op := range b.futures {
		if op < 0 {
			b.errf("future %d never bound by DefineAs", fid)
		}
	}

	// One block each for the operations and their operand lists, and the
	// edge list sized exactly: a loop is a handful of allocations however
	// many operations it has.
	nsrcs, nedges := 0, 2*n+len(b.extraEdges)
	for _, op := range b.ops {
		nsrcs += len(op.srcs)
		for _, s := range op.srcs {
			if s.kind == vOp || s.kind == vFuture {
				nedges++
			}
		}
		if op.hasPred {
			if op.dest != NoReg {
				nedges++
			}
			if op.pred.kind == vOp || op.pred.kind == vFuture {
				nedges++
			}
		}
	}
	block := make([]Operation, n+2)
	regs, dists := make([]Reg, nsrcs), make([]int, nsrcs)
	l := &Loop{
		Name:      b.name,
		Ops:       make([]*Operation, n+2),
		Edges:     make([]Edge, 0, nedges),
		EntryFreq: b.entryFreq,
		LoopFreq:  b.loopFreq,
	}
	block[0] = Operation{ID: 0, Opcode: "START"}
	l.Ops[0] = &block[0]
	for i, op := range b.ops {
		ro := &block[i+1]
		*ro = Operation{
			ID:      i + 1,
			Opcode:  op.opcode,
			Dest:    op.dest,
			Imm:     op.imm,
			Comment: op.comment,
		}
		if k := len(op.srcs); k > 0 {
			ro.Srcs, ro.SrcDists = regs[:k:k], dists[:k:k]
			regs, dists = regs[k:], dists[k:]
			for j, s := range op.srcs {
				_, ro.SrcDists[j], ro.Srcs[j], _ = b.resolve(s)
			}
		}
		if op.hasPred {
			_, dist, reg, _ := b.resolve(op.pred)
			ro.Pred = reg
			ro.PredDist = dist
		}
		l.Ops[i+1] = ro
	}
	stopID := n + 1
	block[stopID] = Operation{ID: stopID, Opcode: "STOP"}
	l.Ops[stopID] = &block[stopID]

	// START precedes and STOP succeeds every real operation.
	for i := 1; i <= n; i++ {
		l.Edges = append(l.Edges, Edge{From: 0, To: i, Kind: Control})
		l.Edges = append(l.Edges, Edge{From: i, To: stopID, Kind: Control})
	}
	// Flow edges from operand references (including predicates).
	for i, op := range b.ops {
		to := i + 1
		// A predicated definition has select semantics: when nullified it
		// carries the previous iteration's value forward, which is an
		// implicit distance-1 flow dependence on itself.
		if op.hasPred && op.dest != NoReg {
			l.Edges = append(l.Edges, Edge{From: to, To: to, Kind: Flow, Distance: 1})
		}
		addFlow := func(v Value) {
			from, dist, _, ok := b.resolve(v)
			if !ok || from < 0 {
				return // invariant or error (already recorded)
			}
			l.Edges = append(l.Edges, Edge{From: from, To: to, Kind: Flow, Distance: dist})
		}
		for _, s := range op.srcs {
			addFlow(s)
		}
		if op.hasPred {
			addFlow(op.pred)
		}
	}
	// Explicit edges.
	for _, pe := range b.extraEdges {
		if pe.from < 0 || pe.from >= n || pe.to < 0 || pe.to >= n {
			b.errf("explicit edge endpoints (%d,%d) out of range", pe.from, pe.to)
			continue
		}
		l.Edges = append(l.Edges, Edge{
			From: pe.from + 1, To: pe.to + 1,
			Kind: pe.kind, Distance: pe.distance, DelayOverride: pe.override,
		})
	}

	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	if err := l.Validate(b.mach); err != nil {
		return nil, err
	}
	return l, nil
}
