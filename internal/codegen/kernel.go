// Package codegen lowers a modulo schedule into executable loop code. Two
// schemas from "Code generation schemas for modulo scheduled loops" (Rau,
// Schlansker, Tirumalai) are implemented:
//
//   - Kernel-only code for machines with rotating registers and predicated
//     execution: II instructions, stage predicates supplied by the brtop
//     semantics, no prologue or epilogue (GenerateKernel).
//   - Explicit prologue/kernel/epilogue code with modulo variable
//     expansion for machines without rotating registers (package modvar +
//     GenerateFlat in flat.go).
package codegen

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"unsafe"

	"modsched/internal/core"
	"modsched/internal/ir"
	"modsched/internal/regalloc"
)

// OperandKind says which register space an operand lives in.
type OperandKind int

const (
	// NoOperand marks an absent dest/pred.
	NoOperand OperandKind = iota
	// Invariant operands live in the static register file.
	Invariant
	// Rotating operands live in the rotating file; Offset is added to the
	// current rotating base (reads reach Offset passes into the past).
	Rotating
)

// Operand is a concrete register reference in generated code.
type Operand struct {
	Kind   OperandKind
	Reg    ir.Reg
	Offset int
}

func (o Operand) String() string {
	return string(o.appendTo(make([]byte, 0, 24)))
}

// appendTo appends the operand's assembly text to b.
func (o Operand) appendTo(b []byte) []byte {
	switch o.Kind {
	case Invariant:
		return strconv.AppendInt(append(b, 's'), int64(o.Reg), 10)
	case Rotating:
		b = strconv.AppendInt(append(b, "rot[r"...), int64(o.Reg), 10)
		if o.Offset != 0 {
			b = strconv.AppendInt(append(b, '+'), int64(o.Offset), 10)
		}
		return append(b, ']')
	default:
		return append(b, '-')
	}
}

// textLen is the length of the operand's text.
func (o Operand) textLen() int {
	switch o.Kind {
	case Invariant:
		return 1 + intLen(int64(o.Reg))
	case Rotating:
		n := len("rot[r]") + intLen(int64(o.Reg))
		if o.Offset != 0 {
			n += 1 + intLen(int64(o.Offset))
		}
		return n
	default:
		return 1
	}
}

// KOp is one operation of the kernel.
type KOp struct {
	// Op is the source operation (carries opcode, immediate, comment).
	Op *ir.Operation
	// Slot and Stage locate the op: issue time = Stage*II + Slot.
	Slot, Stage int
	Dest        Operand
	Srcs        []Operand
	// Pred is the data predicate (from IF-conversion); the stage predicate
	// is implied by Stage and handled by the brtop semantics.
	Pred Operand
	// Alt is the chosen machine alternative.
	Alt int
}

// Preload describes a rotating register that must hold a live-in value
// before the first kernel pass: the value the EVR Reg held Back iterations
// before iteration zero.
type Preload struct {
	Phys int
	Reg  ir.Reg
	Back int
}

// Kernel is kernel-only modulo-scheduled code.
type Kernel struct {
	Name string
	// II is the initiation interval; SC the stage count.
	II, SC int
	// Slots holds the II VLIW instructions; ops within a slot are
	// simultaneous.
	Slots [][]KOp
	// Alloc is the rotating-file allocation backing the operands.
	Alloc *regalloc.Rotating
	// Preloads must be applied before the first pass.
	Preloads []Preload
	// Schedule is the schedule this code was generated from.
	Schedule *core.Schedule
}

// GenerateKernel lowers a schedule to kernel-only code with rotating
// registers. Reads of a value produced by operation Q at distance d from
// operation P become rotating-file reads at offset d + Stage(P) - Stage(Q)
// (the instance written d iterations earlier, observed from P's pass).
//
// Every table is a slice indexed by a register's position among the
// loop's defined registers in register order (its wand), or by read or
// op position; no table is sized by a register number.
func GenerateKernel(s *core.Schedule) (*Kernel, error) {
	l := s.Loop
	ii := s.II
	stage := func(op int) int { return s.Times[op] / ii }
	slot := func(op int) int { return s.Times[op] % ii }
	defs := variantDefs(l)

	// First pass: resolve every read — each source, each predicate, and,
	// for a predicated definition, the read of its own previous instance
	// (select semantics, distance 1) — to its wand and rotating offset,
	// and build the allocation request per wand from them: the
	// steady-state lifetime (maximum read offset) and the deepest
	// distance read, which bounds the live-in instances read during the
	// fill phase.
	type read struct{ wand, off, dist int } // wand -1: an invariant
	nsrcs, nreads, perSlot := 0, 0, make([]int, ii)
	for _, op := range l.RealOps() {
		nsrcs += len(op.Srcs)
		nreads += len(op.Srcs)
		if op.Pred != ir.NoReg {
			nreads++
			if op.Dest != ir.NoReg {
				nreads++
			}
		}
		perSlot[slot(op.ID)]++
	}
	reads := make([]read, 0, nreads)
	wands := make([]regalloc.Wand, len(defs))
	for w, def := range defs {
		wands[w] = regalloc.Wand{Reg: def.reg, Stage: stage(def.op)}
	}
	depth := make([]int, len(defs))
	readOf := func(p *ir.Operation, reg ir.Reg, dist int) error {
		w := defs.find(reg)
		if w < 0 {
			reads = append(reads, read{wand: -1})
			return nil
		}
		off := dist + stage(p.ID) - wands[w].Stage
		if off < 0 {
			return fmt.Errorf("codegen %s: op %d reads r%d at negative rotating offset %d", l.Name, p.ID, reg, off)
		}
		wands[w].Life = max(wands[w].Life, off)
		depth[w] = max(depth[w], dist)
		reads = append(reads, read{wand: w, off: off, dist: dist})
		return nil
	}
	for _, op := range l.RealOps() {
		for si, r := range op.Srcs {
			d := 0
			if op.SrcDists != nil {
				d = op.SrcDists[si]
			}
			if err := readOf(op, r, d); err != nil {
				return nil, err
			}
		}
		if op.Pred != ir.NoReg {
			if err := readOf(op, op.Pred, op.PredDist); err != nil {
				return nil, err
			}
			if op.Dest != ir.NoReg {
				if err := readOf(op, op.Dest, 1); err != nil { // nullified def carries the old value forward
					return nil, err
				}
			}
		}
	}

	// Live-ins: iterations i < d of a read at distance d see an instance
	// from before the loop, with virtual write pass v = i - d + stage(def)
	// and last read at pass i + stage(reader) = v + off. The reads of a
	// wand thus cover the virtual passes stage-depth .. stage-1, and the
	// one k passes below its stage is last read at v plus the largest
	// offset among the reads at distance k or more. Each wand's virtuals
	// are a run of one shared slice, the largest such offset parked in
	// LastRead until the sweep below replaces it.
	nvirt := 0
	for _, d := range depth {
		nvirt += d
	}
	virt := make([]regalloc.Virtual, nvirt)
	for w := range wands {
		if d := depth[w]; d > 0 {
			wands[w].Virtuals, virt = virt[:d:d], virt[d:]
			for i := range wands[w].Virtuals {
				wands[w].Virtuals[i].LastRead = math.MinInt
			}
		}
	}
	for _, r := range reads {
		if r.dist > 0 {
			v := &wands[r.wand].Virtuals[depth[r.wand]-r.dist]
			v.LastRead = max(v.LastRead, r.off)
		}
	}
	for w := range wands {
		wd := &wands[w]
		off := math.MinInt
		for i := range wd.Virtuals {
			v := &wd.Virtuals[i]
			off = max(off, v.LastRead)
			v.V = wd.Stage - depth[w] + i
			v.LastRead = v.V + off
		}
	}
	// A value's register is busy not only until its last read but until
	// the write itself commits (issue + latency): a long-latency producer
	// must not have its cell reassigned to a wand whose shorter-latency
	// write would commit first and then be clobbered by the stale commit.
	// Guaranteeing the next writer is at least ceil((latency-1)/II) passes
	// away makes commits to each cell strictly issue-ordered.
	for w, def := range defs {
		lat := s.Machine.MustOpcode(l.Ops[def.op].Opcode).Latency
		if need := (lat - 1 + ii - 1) / ii; need > wands[w].Life {
			wands[w].Life = need
		}
	}

	alloc, err := regalloc.AllocateRotating(wands)
	if err != nil {
		return nil, err
	}
	if err := alloc.Verify(); err != nil {
		return nil, fmt.Errorf("codegen %s: %w", l.Name, err)
	}

	k := &Kernel{
		Name:     l.Name,
		II:       ii,
		SC:       s.StageCount(),
		Slots:    make([][]KOp, ii),
		Alloc:    alloc,
		Schedule: s,
	}

	// Second pass: emit operations, each slot a run of one shared slice
	// and each op's sources a run of another, consuming the reads in the
	// order the first pass made them.
	kops := make([]KOp, l.NumRealOps())
	for sl, n := range perSlot {
		if n > 0 {
			k.Slots[sl], kops = kops[:0:n], kops[n:]
		}
	}
	srcs := make([]Operand, nsrcs)
	operand := func(reg ir.Reg) Operand {
		r := reads[0]
		reads = reads[1:]
		if r.wand < 0 {
			return Operand{Kind: Invariant, Reg: reg}
		}
		return Operand{Kind: Rotating, Reg: reg, Offset: r.off}
	}
	for _, op := range l.RealOps() {
		ko := KOp{
			Op:    op,
			Slot:  slot(op.ID),
			Stage: stage(op.ID),
			Alt:   s.Alts[op.ID],
		}
		if op.Dest != ir.NoReg {
			ko.Dest = Operand{Kind: Rotating, Reg: op.Dest}
		}
		if n := len(op.Srcs); n > 0 {
			ko.Srcs, srcs = srcs[:n:n], srcs[n:]
			for si, r := range op.Srcs {
				ko.Srcs[si] = operand(r)
			}
		}
		if op.Pred != ir.NoReg {
			ko.Pred = operand(op.Pred)
			if op.Dest != ir.NoReg {
				reads = reads[1:] // the self-read
			}
		}
		k.Slots[ko.Slot] = append(k.Slots[ko.Slot], ko)
	}

	// Preloads: each virtual instance (the value the EVR held before
	// iteration 0, read during the fill phase) must be placed in its cell
	// before the first pass. The instance with virtual write pass v
	// carries the value from (stage(def) - v) iterations before entry.
	if nvirt > 0 {
		k.Preloads = make([]Preload, 0, nvirt)
	}
	for _, w := range wands {
		for _, v := range w.Virtuals {
			k.Preloads = append(k.Preloads, Preload{
				Phys: alloc.Phys(w.Reg, v.V),
				Reg:  w.Reg,
				Back: w.Stage - v.V,
			})
		}
	}
	return k, nil
}

// regDef pairs a loop-variant register with the index of its defining op.
type regDef struct {
	reg ir.Reg
	op  int
}

// defTable lists a loop's variant registers in register order; a
// register's position in it is its wand.
type defTable []regDef

// variantDefs builds the defTable of l. Where a register has several
// definers (a loop not in DSA form) the last one counts, as in
// ir.Loop.DefOf.
func variantDefs(l *ir.Loop) defTable {
	defs := make(defTable, 0, l.NumOps())
	sorted := true
	for i, op := range l.Ops {
		if op.Dest == ir.NoReg {
			continue
		}
		if n := len(defs); n > 0 && defs[n-1].reg >= op.Dest {
			sorted = false
		}
		defs = append(defs, regDef{reg: op.Dest, op: i})
	}
	if sorted {
		return defs
	}
	slices.SortStableFunc(defs, func(a, b regDef) int { return cmp.Compare(a.reg, b.reg) })
	out := defs[:0]
	for i, d := range defs {
		if i+1 < len(defs) && defs[i+1].reg == d.reg {
			continue // a later definer of the same register wins
		}
		out = append(out, d)
	}
	return out
}

// find returns reg's wand, or -1 for a register no op defines.
func (t defTable) find(reg ir.Reg) int {
	i, ok := slices.BinarySearchFunc(t, reg, func(d regDef, r ir.Reg) int { return cmp.Compare(d.reg, r) })
	if !ok {
		return -1
	}
	return i
}

// String renders the kernel as annotated assembly, in one allocation.
func (k *Kernel) String() string {
	b := make([]byte, 0, k.textLen())
	b = append(b, "kernel "...)
	b = append(b, k.Name...)
	b = strconv.AppendInt(append(b, ": II="...), int64(k.II), 10)
	b = strconv.AppendInt(append(b, " SC="...), int64(k.SC), 10)
	b = strconv.AppendInt(append(b, " rotsize="...), int64(k.Alloc.Size), 10)
	b = append(b, '\n')
	for _, pl := range k.Preloads {
		b = strconv.AppendInt(append(b, "  preload rot["...), int64(pl.Phys), 10)
		b = strconv.AppendInt(append(b, "] = init(r"...), int64(pl.Reg), 10)
		b = strconv.AppendInt(append(b, ", back "...), int64(pl.Back), 10)
		b = append(b, ")\n"...)
	}
	for slot, ops := range k.Slots {
		b = strconv.AppendInt(append(b, "  t"...), int64(slot), 10)
		for w := intLen(int64(slot)); w < 3; w++ {
			b = append(b, ' ')
		}
		b = append(b, ':')
		if len(ops) == 0 {
			b = append(b, " nop\n"...)
			continue
		}
		for i, ko := range ops {
			if i > 0 {
				b = append(b, " ||"...)
			}
			b = strconv.AppendInt(append(b, " [stg"...), int64(ko.Stage), 10)
			b = append(b, ']')
			if ko.Pred.Kind != NoOperand {
				b = append(ko.Pred.appendTo(append(b, " ("...)), ')')
			}
			if ko.Dest.Kind != NoOperand {
				b = append(ko.Dest.appendTo(append(b, ' ')), " ="...)
			}
			b = append(append(b, ' '), ko.Op.Opcode...)
			for _, src := range ko.Srcs {
				b = src.appendTo(append(b, ' '))
			}
			if ko.Op.Imm != 0 {
				b = strconv.AppendInt(append(b, " #"...), ko.Op.Imm, 10)
			}
		}
		b = append(b, '\n')
	}
	// b is never written again, so the string can share its bytes.
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// textLen is the exact length of String's text, so String can allocate
// it once.
func (k *Kernel) textLen() int {
	n := len("kernel : II= SC= rotsize=\n") + len(k.Name) +
		intLen(int64(k.II)) + intLen(int64(k.SC)) + intLen(int64(k.Alloc.Size))
	for _, pl := range k.Preloads {
		n += len("  preload rot[] = init(r, back )\n") +
			intLen(int64(pl.Phys)) + intLen(int64(pl.Reg)) + intLen(int64(pl.Back))
	}
	for slot, ops := range k.Slots {
		n += len("  t:") + max(intLen(int64(slot)), 3)
		if len(ops) == 0 {
			n += len(" nop\n")
			continue
		}
		n += len(" ||")*(len(ops)-1) + len("\n")
		for _, ko := range ops {
			n += len(" [stg]") + intLen(int64(ko.Stage)) + len(" ") + len(ko.Op.Opcode)
			if ko.Pred.Kind != NoOperand {
				n += len(" ()") + ko.Pred.textLen()
			}
			if ko.Dest.Kind != NoOperand {
				n += len("  =") + ko.Dest.textLen()
			}
			for _, src := range ko.Srcs {
				n += len(" ") + src.textLen()
			}
			if ko.Op.Imm != 0 {
				n += len(" #") + intLen(ko.Op.Imm)
			}
		}
	}
	return n
}

// intLen is the length of v in decimal.
func intLen(v int64) int {
	n, u := 1, uint64(v)
	if v < 0 {
		n, u = 2, -u
	}
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}
