package codegen_test

import (
	"context"
	"testing"

	"modsched/internal/codegen"
	"modsched/internal/core"
	"modsched/internal/experiments"
	"modsched/internal/ir"
	"modsched/internal/looplang"
	"modsched/internal/machine"
)

// deepBackRef1 and deepBackRef2 read one and two address registers 20000
// iterations back: each such register becomes a wand with 20000 live-in
// virtuals and a rotating file of over 20000 cells.
const deepBackRef1 = `loop deep1
xi = aadd xi@20000, #8
x  = load xi
t  = fadd x, x
si = aadd si@1, #8
st: store si, t
brtop
`

const deepBackRef2 = `loop deep2
xi = aadd xi@20000, #8
x  = load xi
yi = aadd yi@20000, #8
y  = load yi
t  = fadd x, y
si = aadd si@1, #8
st: store si, t
brtop
`

// BenchmarkGenerateKernel times kernel generation, rotating-register
// allocation and its replay check included, on the corpus's two largest
// loops and on two tiny loops with very long back-references.
func BenchmarkGenerateKernel(b *testing.B) {
	m := machine.Cydra5()
	corpus, err := experiments.Corpus(m)
	if err != nil {
		b.Fatal(err)
	}
	byName := make(map[string]*ir.Loop, len(corpus))
	for _, l := range corpus {
		byName[l.Name] = l
	}
	parse := func(src string) *ir.Loop {
		l, err := looplang.Parse(src, m)
		if err != nil {
			b.Fatal(err)
		}
		return l
	}
	for _, c := range []struct {
		name string
		loop *ir.Loop
	}{
		{"synth0411", byName["synth0411"]},
		{"synth1074", byName["synth1074"]},
		{"backref1", parse(deepBackRef1)},
		{"backref2", parse(deepBackRef2)},
	} {
		b.Run(c.name, func(b *testing.B) {
			if c.loop == nil {
				b.Fatalf("%s is not in the corpus", c.name)
			}
			s, _, err := core.ModuloScheduleBestEffort(context.Background(), c.loop, m, core.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := codegen.GenerateKernel(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
