package codegen_test

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"modsched/internal/codegen"
	"modsched/internal/core"
	"modsched/internal/experiments"
	"modsched/internal/ir"
	"modsched/internal/looplang"
	"modsched/internal/machine"
)

// TestGenerateKernelMatchesReference lowers every corpus loop on every
// machine of the zoo both ways, the dense tables and the map-based
// reference, and requires the same kernel, and the same text from the
// append-based renderer as from the fmt-based one, byte for byte.
func TestGenerateKernelMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("schedules the corpus on six machines")
	}
	ms := []experiments.MatrixMachine{{Name: "cydra5", Machine: machine.Cydra5()}}
	paths, err := filepath.Glob("../../testdata/machines/*.mach")
	if err != nil || len(paths) == 0 {
		t.Fatalf("zoo machines: %v (%d files)", err, len(paths))
	}
	for _, path := range paths {
		m, err := machine.LoadMachineFile(path)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, experiments.MatrixMachine{Name: filepath.Base(path), Machine: m})
	}
	for _, mm := range ms {
		t.Run(mm.Name, func(t *testing.T) {
			corpus, err := experiments.Corpus(mm.Machine)
			if err != nil {
				t.Fatal(err)
			}
			// Two tiny loops whose back-references run 20000 iterations
			// deep: thousands of live-in virtuals per wand.
			for _, src := range []string{deepBackRef1, deepBackRef2} {
				if l, err := looplang.Parse(src, mm.Machine); err == nil {
					corpus = append(corpus, l)
				}
			}
			for _, l := range corpus {
				s, _, err := core.ModuloScheduleBestEffort(context.Background(), l, mm.Machine, core.DefaultOptions())
				if err != nil {
					t.Fatalf("%s: %v", l.Name, err)
				}
				got, gerr := codegen.GenerateKernel(s)
				want, werr := referenceGenerateKernel(s)
				if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
					t.Fatalf("%s: GenerateKernel error %v, reference error %v", l.Name, gerr, werr)
				}
				if werr != nil {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: GenerateKernel and reference built different kernels:\n%s\n-- vs --\n%s",
						l.Name, referenceString(got), referenceString(want))
				}
				if g, w := got.String(), referenceString(want); g != w {
					t.Fatalf("%s: String differs from the reference renderer:\n%s\n-- vs --\n%s", l.Name, g, w)
				}
				// The same schedule with the registers renumbered into
				// descending order, some beyond two billion.
				r := *s
				r.Loop = renumbered(l)
				got, gerr = codegen.GenerateKernel(&r)
				want, werr = referenceGenerateKernel(&r)
				if gerr != nil || werr != nil || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s renumbered: GenerateKernel (%v) and reference (%v) disagree:\n%v\n-- vs --\n%v", l.Name, gerr, werr, got, want)
				}
			}
		})
	}
}

// renumbered returns a copy of l whose registers run in descending
// order of definition and reach past 2e9, so no table may be indexed or
// sized by register number, nor assume definers come in register order.
func renumbered(l *ir.Loop) *ir.Loop {
	c := l.Clone()
	re := func(r ir.Reg) ir.Reg {
		if r == ir.NoReg {
			return r
		}
		return ir.Reg(2_100_000_000 - 1_000_003*int(r))
	}
	for _, op := range c.Ops {
		op.Dest, op.Pred = re(op.Dest), re(op.Pred)
		for i, r := range op.Srcs {
			op.Srcs[i] = re(r)
		}
	}
	return c
}
