package experiments

import (
	"context"
	"math"
	"runtime"
	"testing"

	"modsched/internal/codegen"
	"modsched/internal/core"
	"modsched/internal/looplang"
	"modsched/internal/machine"
)

// textCorpus is the paper corpus as the msched pipeline sees it: each
// loop printed to loop text, scheduled once, and lowered to a kernel.
type textCorpus struct {
	m       *machine.Machine
	srcs    []string
	bytes   int64
	scheds  []*core.Schedule
	kernels []*codegen.Kernel
}

func loadTextCorpus(tb testing.TB) *textCorpus {
	tb.Helper()
	m := machine.Cydra5()
	loops, err := Corpus(m)
	if err != nil {
		tb.Fatal(err)
	}
	tc := &textCorpus{m: m}
	for _, l := range loops {
		src := looplang.Print(l)
		pl, err := looplang.Parse(src, m)
		if err != nil {
			tb.Fatalf("%s: %v", l.Name, err)
		}
		s, _, err := core.ModuloScheduleBestEffort(context.Background(), pl, m, core.DefaultOptions())
		if err != nil {
			tb.Fatalf("%s: %v", l.Name, err)
		}
		k, err := codegen.GenerateKernel(s)
		if err != nil {
			tb.Fatalf("%s: %v", l.Name, err)
		}
		tc.srcs = append(tc.srcs, src)
		tc.bytes += int64(len(src))
		tc.scheds = append(tc.scheds, s)
		tc.kernels = append(tc.kernels, k)
	}
	return tc
}

// The three text-bound stages of msched's pipeline, one corpus pass each.
func (tc *textCorpus) parsePass(tb testing.TB) {
	for _, src := range tc.srcs {
		if _, err := looplang.Parse(src, tc.m); err != nil {
			tb.Fatal(err)
		}
	}
}

func (tc *textCorpus) generatePass(tb testing.TB) {
	for _, s := range tc.scheds {
		if _, err := codegen.GenerateKernel(s); err != nil {
			tb.Fatal(err)
		}
	}
}

func (tc *textCorpus) stringPass(tb testing.TB) {
	for _, k := range tc.kernels {
		_ = k.String()
	}
}

// stageMallocPins holds the exact heap allocations of one corpus pass per
// stage, keyed by the Go release that produced them: allocation counts
// move with the compiler's escape analysis and the runtime's map layout.
var stageMallocPins = map[string]struct{ parse, generate, render uint64 }{
	"go1.24.0": {parse: 24580, generate: 33674, render: 1327},
}

// TestStageMallocPins pins the mallocs of a corpus pass through Parse,
// GenerateKernel and Kernel.String. Allocation counts are deterministic
// where wall-clock is not, so a change that adds per-loop garbage to the
// text stages shows here exactly. String must make one allocation per
// kernel: the returned text.
func TestStageMallocPins(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus pass in -short mode")
	}
	if raceEnabled || testing.CoverMode() != "" {
		t.Skip("race and coverage instrumentation allocate")
	}
	tc := loadTextCorpus(t)
	// The least of three passes: a stray allocation by some other
	// goroutine of the test binary can only add to a count.
	count := func(pass func(testing.TB)) uint64 {
		pass(t) // warm any lazily built machine tables
		least := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			pass(t)
			runtime.ReadMemStats(&after)
			least = min(least, after.Mallocs-before.Mallocs)
		}
		return least
	}
	parse, generate, render := count(tc.parsePass), count(tc.generatePass), count(tc.stringPass)
	n := uint64(len(tc.srcs))
	t.Logf("%s, %d loops: parse %d mallocs (%.1f/loop), GenerateKernel %d (%.1f/loop), String %d (%.1f/loop)",
		runtime.Version(), n, parse, float64(parse)/float64(n), generate, float64(generate)/float64(n), render, float64(render)/float64(n))
	pin, ok := stageMallocPins[runtime.Version()]
	if !ok {
		t.Skipf("no pins for %s", runtime.Version())
	}
	if parse != pin.parse {
		t.Errorf("parse pass: %d mallocs, want %d", parse, pin.parse)
	}
	if generate != pin.generate {
		t.Errorf("GenerateKernel pass: %d mallocs, want %d", generate, pin.generate)
	}
	if render != pin.render {
		t.Errorf("String pass: %d mallocs, want %d", render, pin.render)
	}
}

// BenchmarkTextStages times one corpus pass per iteration through each
// text-bound stage:
//
//	go test -run '^$' -bench TextStages -benchtime 20x ./internal/experiments/
func BenchmarkTextStages(b *testing.B) {
	tc := loadTextCorpus(b)
	b.Run("Parse", func(b *testing.B) {
		b.SetBytes(tc.bytes)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tc.parsePass(b)
		}
	})
	b.Run("GenerateKernel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tc.generatePass(b)
		}
	})
	b.Run("String", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tc.stringPass(b)
		}
	})
}
