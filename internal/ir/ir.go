// Package ir defines the loop intermediate representation consumed by the
// modulo scheduler: a single (IF-converted, dynamic-single-assignment) basic
// block of predicated operations plus a dependence graph whose edges carry
// an iteration distance and a dependence kind. Delays are derived from the
// machine's latencies via the Table 1 formulas in delay.go.
//
// The representation assumes the preceding phases of the paper's flow have
// already run: region selection, IF-conversion (control dependences appear
// as flow dependences on predicate values), and conversion to expanded
// virtual registers (EVRs), so all remaining anti- and output dependences
// are ones the client chose to keep (typically memory dependences).
package ir

import (
	"fmt"

	"modsched/internal/machine"
)

// DepKind classifies a dependence edge.
type DepKind int

const (
	// Flow is a true (read-after-write) register dependence, including
	// dependences on predicate values produced by IF-conversion.
	Flow DepKind = iota
	// Anti is a write-after-read register dependence.
	Anti
	// Output is a write-after-write register dependence.
	Output
	// Mem is a memory ordering dependence (store/load aliasing). Its delay
	// defaults to 1 (strict ordering) unless overridden.
	Mem
	// Control orders pseudo-operations: START before everything,
	// everything before STOP. Delay is Latency(pred), like Flow.
	Control
)

func (k DepKind) String() string {
	switch k {
	case Flow:
		return "flow"
	case Anti:
		return "anti"
	case Output:
		return "output"
	case Mem:
		return "mem"
	case Control:
		return "control"
	default:
		return fmt.Sprintf("DepKind(%d)", int(k))
	}
}

// Reg is an expanded virtual register (EVR) number. Register 0 is reserved
// to mean "none" (e.g. an absent predicate).
type Reg int

// NoReg is the absent register.
const NoReg Reg = 0

// Operation is one operation of the loop body. START and STOP
// pseudo-operations occupy indices 0 and len(Ops)-1 of a Loop.
type Operation struct {
	ID     int    // index within Loop.Ops
	Opcode string // must name an opcode of the target machine
	Dest   Reg    // result register; NoReg for stores, branches, STOP
	Srcs   []Reg  // source registers (scheduling truth lives in the edges)
	// SrcDists holds, parallel to Srcs, the iteration distance of each
	// operand reference (0 = this iteration's value, k = the value the EVR
	// held k iterations ago). Nil means all-zero. Invariant sources use 0.
	SrcDists []int
	Pred     Reg // guarding predicate register; NoReg if unpredicated
	// PredDist is the iteration distance of the predicate reference.
	PredDist int
	// Imm is an optional immediate operand (stride, constant); its meaning
	// is defined by the opcode's semantics in the simulator.
	Imm int64
	// Comment is free-form provenance (e.g. the source expression).
	Comment string
}

// IsPseudo reports whether the operation is START or STOP.
func (o *Operation) IsPseudo() bool { return o.Opcode == "START" || o.Opcode == "STOP" }

// Edge is a dependence from Ops[From] to Ops[To] at iteration distance
// Distance (0 = same iteration, 1 = next iteration, ...).
type Edge struct {
	From, To int
	Kind     DepKind
	Distance int
	// DelayOverride, when non-nil, replaces the Table 1 delay for this
	// edge. Used for memory dependences with known timing.
	DelayOverride *int
}

// Loop is a complete scheduling problem: the operations (bracketed by
// START/STOP), the dependence edges, and profile weights used by the
// execution-time metric of Section 4.3.
type Loop struct {
	Name  string
	Ops   []*Operation
	Edges []Edge

	// EntryFreq is how many times the loop is entered; LoopFreq how many
	// times the body executes (both over the whole profile). Execution
	// time = EntryFreq*SL + (LoopFreq-EntryFreq)*II.
	EntryFreq, LoopFreq int64
}

// Start returns the START pseudo-operation index (always 0).
func (l *Loop) Start() int { return 0 }

// Stop returns the STOP pseudo-operation index (always len(Ops)-1).
func (l *Loop) Stop() int { return len(l.Ops) - 1 }

// NumOps is the total operation count including START and STOP.
func (l *Loop) NumOps() int { return len(l.Ops) }

// NumRealOps is the operation count excluding the two pseudo-operations.
// This is the "number of operations" N reported throughout Section 4.
func (l *Loop) NumRealOps() int { return len(l.Ops) - 2 }

// RealOps returns the non-pseudo operations.
func (l *Loop) RealOps() []*Operation { return l.Ops[1 : len(l.Ops)-1] }

// DefOf returns, for each register, the index of the operation defining it
// in the loop body, or -1 for registers that are live-in (loop invariants
// and pseudo registers).
func (l *Loop) DefOf() map[Reg]int {
	defs := make(map[Reg]int)
	for i, op := range l.Ops {
		if op.Dest != NoReg {
			defs[op.Dest] = i
		}
	}
	return defs
}

// VariantRegs returns the set of registers written inside the loop.
func (l *Loop) VariantRegs() map[Reg]bool {
	set := make(map[Reg]bool)
	for _, op := range l.Ops {
		if op.Dest != NoReg {
			set[op.Dest] = true
		}
	}
	return set
}

// Adjacency is a precomputed successor/predecessor view of a Loop's edges.
type Adjacency struct {
	// Succs[i] and Preds[i] list indices into Loop.Edges.
	Succs, Preds [][]int
}

// BuildAdjacency computes successor and predecessor edge lists per
// operation.
func (l *Loop) BuildAdjacency() *Adjacency {
	a := &Adjacency{
		Succs: make([][]int, len(l.Ops)),
		Preds: make([][]int, len(l.Ops)),
	}
	for ei, e := range l.Edges {
		a.Succs[e.From] = append(a.Succs[e.From], ei)
		a.Preds[e.To] = append(a.Preds[e.To], ei)
	}
	return a
}

// Validate checks structural invariants: START/STOP bracketing, opcode
// existence on m (when m is non-nil), edge endpoints in range, non-negative
// distances, and IDs consistent with positions.
func (l *Loop) Validate(m *machine.Machine) error {
	if len(l.Ops) < 2 {
		return fmt.Errorf("loop %s: must contain START and STOP", l.Name)
	}
	if l.Ops[0].Opcode != "START" {
		return fmt.Errorf("loop %s: first op is %q, want START", l.Name, l.Ops[0].Opcode)
	}
	if l.Ops[len(l.Ops)-1].Opcode != "STOP" {
		return fmt.Errorf("loop %s: last op is %q, want STOP", l.Name, l.Ops[len(l.Ops)-1].Opcode)
	}
	for i, op := range l.Ops {
		if op.ID != i {
			return fmt.Errorf("loop %s: op %d has ID %d", l.Name, i, op.ID)
		}
		if op.IsPseudo() && i != 0 && i != len(l.Ops)-1 {
			return fmt.Errorf("loop %s: pseudo-op %q at interior position %d", l.Name, op.Opcode, i)
		}
		if m != nil {
			if _, ok := m.Opcode(op.Opcode); !ok {
				return fmt.Errorf("loop %s: op %d uses unknown opcode %q", l.Name, i, op.Opcode)
			}
		}
	}
	// Dynamic single assignment: every register is written by at most one
	// operation (its EVR).
	// Builders number destinations in op order, so strictly increasing
	// ones (no duplicate possible) skip the map.
	last, increasing := NoReg, true
	for _, op := range l.Ops {
		if op.Dest != NoReg {
			if op.Dest <= last {
				increasing = false
				break
			}
			last = op.Dest
		}
	}
	if !increasing {
		defs := make(map[Reg]int)
		for i, op := range l.Ops {
			if op.Dest == NoReg {
				continue
			}
			if prev, dup := defs[op.Dest]; dup {
				return fmt.Errorf("loop %s: register r%d defined by ops %d and %d (not in DSA form)", l.Name, op.Dest, prev, i)
			}
			defs[op.Dest] = i
		}
	}
	for ei, e := range l.Edges {
		if e.From < 0 || e.From >= len(l.Ops) || e.To < 0 || e.To >= len(l.Ops) {
			return fmt.Errorf("loop %s: edge %d endpoints (%d,%d) out of range", l.Name, ei, e.From, e.To)
		}
		if e.Distance < 0 {
			return fmt.Errorf("loop %s: edge %d has negative distance %d", l.Name, ei, e.Distance)
		}
		// START precedes and STOP succeeds everything, so neither can lie
		// on a recurrence circuit.
		if e.To == 0 || e.From == len(l.Ops)-1 {
			return fmt.Errorf("loop %s: edge %d (%d,%d) enters START or leaves STOP", l.Name, ei, e.From, e.To)
		}
	}
	if l.EntryFreq < 0 || l.LoopFreq < l.EntryFreq {
		return fmt.Errorf("loop %s: inconsistent profile (entry %d, loop %d)", l.Name, l.EntryFreq, l.LoopFreq)
	}
	return nil
}

// Clone returns a deep copy of the loop.
func (l *Loop) Clone() *Loop {
	out := &Loop{
		Name:      l.Name,
		Ops:       make([]*Operation, len(l.Ops)),
		Edges:     make([]Edge, len(l.Edges)),
		EntryFreq: l.EntryFreq,
		LoopFreq:  l.LoopFreq,
	}
	for i, op := range l.Ops {
		c := *op
		c.Srcs = append([]Reg(nil), op.Srcs...)
		c.SrcDists = append([]int(nil), op.SrcDists...)
		out.Ops[i] = &c
	}
	copy(out.Edges, l.Edges)
	for i := range out.Edges {
		if d := l.Edges[i].DelayOverride; d != nil {
			v := *d
			out.Edges[i].DelayOverride = &v
		}
	}
	return out
}

// String renders the loop compactly for debugging.
func (l *Loop) String() string {
	s := fmt.Sprintf("loop %s (%d ops, %d edges)\n", l.Name, l.NumRealOps(), len(l.Edges))
	for _, op := range l.Ops {
		pred := ""
		if op.Pred != NoReg {
			pred = fmt.Sprintf(" if p%d", op.Pred)
		}
		dst := ""
		if op.Dest != NoReg {
			dst = fmt.Sprintf("r%d = ", op.Dest)
		}
		s += fmt.Sprintf("  %3d: %s%s%s", op.ID, dst, op.Opcode, pred)
		for _, r := range op.Srcs {
			s += fmt.Sprintf(" r%d", r)
		}
		if op.Comment != "" {
			s += "  ; " + op.Comment
		}
		s += "\n"
	}
	for _, e := range l.Edges {
		s += fmt.Sprintf("  %d -%s(%d)-> %d\n", e.From, e.Kind, e.Distance, e.To)
	}
	return s
}
