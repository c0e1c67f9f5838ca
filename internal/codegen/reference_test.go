package codegen_test

import (
	"fmt"
	"sort"
	"strings"

	"modsched/internal/codegen"
	"modsched/internal/core"
	"modsched/internal/ir"
	"modsched/internal/regalloc"
)

// referenceGenerateKernel is the map-based GenerateKernel that the dense
// tables replaced, kept as the oracle for TestGenerateKernelMatchesReference.
func referenceGenerateKernel(s *core.Schedule) (*codegen.Kernel, error) {
	l := s.Loop
	ii := s.II
	defs := l.DefOf()

	stage := func(op int) int { return s.Times[op] / ii }
	slot := func(op int) int { return s.Times[op] % ii }

	// First pass: build the allocation request per register — the
	// steady-state lifetime (maximum read offset) and the live-in virtual
	// instances read during the fill phase. A predicated definition also
	// reads its own previous instance (select semantics, offset 1).
	offsetOf := func(p *ir.Operation, reg ir.Reg, dist int) (int, bool) {
		def, ok := defs[reg]
		if !ok {
			return 0, false // invariant
		}
		return dist + stage(p.ID) - stage(def), true
	}
	forEachRead := func(f func(p *ir.Operation, reg ir.Reg, dist int)) {
		for _, op := range l.RealOps() {
			for si, r := range op.Srcs {
				d := 0
				if op.SrcDists != nil {
					d = op.SrcDists[si]
				}
				f(op, r, d)
			}
			if op.Pred != ir.NoReg {
				f(op, op.Pred, op.PredDist)
			}
			if op.Pred != ir.NoReg && op.Dest != ir.NoReg {
				f(op, op.Dest, 1) // nullified def carries the old value forward
			}
		}
	}
	life := make(map[ir.Reg]int)
	virtuals := make(map[ir.Reg]map[int]int) // reg -> virtual pass V -> last read
	for r := range l.VariantRegs() {
		life[r] = 0
	}
	var offErr error
	forEachRead(func(p *ir.Operation, reg ir.Reg, dist int) {
		off, variant := offsetOf(p, reg, dist)
		if !variant {
			return
		}
		if off < 0 && offErr == nil {
			offErr = fmt.Errorf("codegen %s: op %d reads r%d at negative rotating offset %d", l.Name, p.ID, reg, off)
		}
		if off > life[reg] {
			life[reg] = off
		}
		// Iterations i < dist read a live-in instance: virtual write pass
		// v = i - dist + stage(def), read at pass i + stage(p).
		sq := stage(defs[reg])
		sp := stage(p.ID)
		for i := 0; i < dist; i++ {
			v := i - dist + sq
			lastRead := i + sp
			if virtuals[reg] == nil {
				virtuals[reg] = make(map[int]int)
			}
			if lr, ok := virtuals[reg][v]; !ok || lastRead > lr {
				virtuals[reg][v] = lastRead
			}
		}
	})
	if offErr != nil {
		return nil, offErr
	}
	// A value's register is busy not only until its last read but until
	// the write itself commits (issue + latency): a long-latency producer
	// must not have its cell reassigned to a wand whose shorter-latency
	// write would commit first and then be clobbered by the stale commit.
	// Guaranteeing the next writer is at least ceil((latency-1)/II) passes
	// away makes commits to each cell strictly issue-ordered.
	for r := range life {
		lat := s.Machine.MustOpcode(l.Ops[defs[r]].Opcode).Latency
		if need := (lat - 1 + ii - 1) / ii; need > life[r] {
			life[r] = need
		}
	}

	wands := make([]regalloc.Wand, 0, len(life))
	for r, lf := range life {
		w := regalloc.Wand{Reg: r, Stage: stage(defs[r]), Life: lf}
		vks := make([]int, 0, len(virtuals[r]))
		for v := range virtuals[r] {
			vks = append(vks, v)
		}
		sort.Ints(vks)
		for _, v := range vks {
			w.Virtuals = append(w.Virtuals, regalloc.Virtual{V: v, LastRead: virtuals[r][v]})
		}
		wands = append(wands, w)
	}
	sort.Slice(wands, func(i, j int) bool { return wands[i].Reg < wands[j].Reg })

	alloc, err := regalloc.AllocateRotating(wands)
	if err != nil {
		return nil, err
	}
	if err := alloc.Verify(); err != nil {
		return nil, fmt.Errorf("codegen %s: %w", l.Name, err)
	}

	k := &codegen.Kernel{
		Name:     l.Name,
		II:       ii,
		SC:       s.StageCount(),
		Slots:    make([][]codegen.KOp, ii),
		Alloc:    alloc,
		Schedule: s,
	}

	// Second pass: emit operations.
	for _, op := range l.RealOps() {
		ko := codegen.KOp{
			Op:    op,
			Slot:  slot(op.ID),
			Stage: stage(op.ID),
			Alt:   s.Alts[op.ID],
		}
		if op.Dest != ir.NoReg {
			ko.Dest = codegen.Operand{Kind: codegen.Rotating, Reg: op.Dest}
		}
		mkOperand := func(reg ir.Reg, dist int) codegen.Operand {
			if off, variant := offsetOf(op, reg, dist); variant {
				return codegen.Operand{Kind: codegen.Rotating, Reg: reg, Offset: off}
			}
			return codegen.Operand{Kind: codegen.Invariant, Reg: reg}
		}
		for si, r := range op.Srcs {
			d := 0
			if op.SrcDists != nil {
				d = op.SrcDists[si]
			}
			ko.Srcs = append(ko.Srcs, mkOperand(r, d))
		}
		if op.Pred != ir.NoReg {
			ko.Pred = mkOperand(op.Pred, op.PredDist)
		}
		k.Slots[ko.Slot] = append(k.Slots[ko.Slot], ko)
	}

	// Preloads: each virtual instance (the value the EVR held before
	// iteration 0, read during the fill phase) must be placed in its cell
	// before the first pass. The instance with virtual write pass v
	// carries the value from (stage(def) - v) iterations before entry.
	for _, w := range wands {
		sq := stage(defs[w.Reg])
		for _, v := range w.Virtuals {
			k.Preloads = append(k.Preloads, codegen.Preload{
				Phys: alloc.Phys(w.Reg, v.V),
				Reg:  w.Reg,
				Back: sq - v.V,
			})
		}
	}
	return k, nil
}

// referenceString is the fmt-based Kernel.String that the append-based
// renderer replaced, kept as the oracle for the byte-identity tests.
func referenceString(k *codegen.Kernel) string {
	var b strings.Builder
	fmt.Fprintf(&b, "kernel %s: II=%d SC=%d rotsize=%d\n", k.Name, k.II, k.SC, k.Alloc.Size)
	for _, pl := range k.Preloads {
		fmt.Fprintf(&b, "  preload rot[%d] = init(r%d, back %d)\n", pl.Phys, pl.Reg, pl.Back)
	}
	for slot, ops := range k.Slots {
		fmt.Fprintf(&b, "  t%-3d:", slot)
		if len(ops) == 0 {
			b.WriteString(" nop\n")
			continue
		}
		for i, ko := range ops {
			if i > 0 {
				b.WriteString(" ||")
			}
			fmt.Fprintf(&b, " [stg%d]", ko.Stage)
			if ko.Pred.Kind != codegen.NoOperand {
				fmt.Fprintf(&b, " (%s)", referenceOperand(ko.Pred))
			}
			if ko.Dest.Kind != codegen.NoOperand {
				fmt.Fprintf(&b, " %s =", referenceOperand(ko.Dest))
			}
			fmt.Fprintf(&b, " %s", ko.Op.Opcode)
			for _, src := range ko.Srcs {
				fmt.Fprintf(&b, " %s", referenceOperand(src))
			}
			if ko.Op.Imm != 0 {
				fmt.Fprintf(&b, " #%d", ko.Op.Imm)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// referenceOperand is the fmt-based Operand.String.
func referenceOperand(o codegen.Operand) string {
	switch o.Kind {
	case codegen.Invariant:
		return fmt.Sprintf("s%d", o.Reg)
	case codegen.Rotating:
		if o.Offset != 0 {
			return fmt.Sprintf("rot[r%d+%d]", o.Reg, o.Offset)
		}
		return fmt.Sprintf("rot[r%d]", o.Reg)
	default:
		return "-"
	}
}
