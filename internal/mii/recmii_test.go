package mii

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"modsched/internal/graph"
	"modsched/internal/ir"
	"modsched/internal/loopgen"
	"modsched/internal/machine"
	"modsched/internal/scherr"
)

// selfEdge is one explicit reflexive dependence of a test op.
type selfEdge struct{ dist, delay int }

// TestSingletonSelfEdges pins the closed-form bound of single-op SCCs:
// max ceil(d/dist) over the op's self edges, zero-distance zero-delay
// self edges ignored, and a zero-distance positive-delay self edge
// reported as ErrNoSchedule naming the first such op in SCC order.
func TestSingletonSelfEdges(t *testing.T) {
	m := machine.Cydra5()
	cases := []struct {
		name string
		// self[i] lists op i's self edges; op i+1 reads op i's result, so
		// the last op comes first in SCC (reverse topological) order.
		self    [][]selfEdge
		want    int
		wantErr string // substring of the ErrNoSchedule message
	}{
		{name: "max over distances", self: [][]selfEdge{{{1, 3}, {2, 9}, {3, 10}}}, want: 5},
		{name: "non-positive delays add nothing", self: [][]selfEdge{{{1, 0}, {2, -4}}}, want: 1},
		{name: "zero distance zero delay ignored", self: [][]selfEdge{{{0, 0}, {1, 2}}}, want: 2},
		{name: "zero distance alone", self: [][]selfEdge{{{0, 0}}}, want: 1},
		{name: "bound per op", self: [][]selfEdge{{{1, 6}}, {{2, 7}}}, want: 6},
		{
			name:    "zero distance positive delay",
			self:    [][]selfEdge{{{1, 3}, {0, 2}}, {{0, 5}, {0, 7}}},
			wantErr: "op 2 has zero-distance self dependence with delay 5",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, delays := buildLoop(t, m, func(b *ir.Builder) {
				prev := b.Invariant("a")
				var ops []ir.Op
				for range tc.self {
					v := b.Define("fadd", prev, b.Invariant("c"))
					ops = append(ops, b.OpOf(v))
					prev = v
				}
				b.Effect("brtop")
				for i, es := range tc.self {
					for _, e := range es {
						b.DepDelay(ops[i], ops[i], ir.Flow, e.dist, e.delay)
					}
				}
			})
			got, err := RecurrenceMII(l, delays, 1, nil)
			if tc.wantErr != "" {
				if !errors.Is(err, scherr.ErrNoSchedule) || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want ErrNoSchedule containing %q", err, tc.wantErr)
				}
				if _, cerr := Compute(l, m, delays, nil); cerr == nil || cerr.Error() != err.Error() {
					t.Fatalf("Compute err = %v, want %v", cerr, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("RecMII = %d, want %d", got, tc.want)
			}
			res, err := Compute(l, m, delays, nil)
			if err != nil {
				t.Fatal(err)
			}
			if want := max(res.ResMII, tc.want); res.MII != want {
				t.Fatalf("MII = %d, want max(ResMII %d, RecMII %d)", res.MII, res.ResMII, tc.want)
			}
		})
	}
}

// realSCCs computes SCC statistics over the real operations only, on a
// graph with every edge at START or STOP dropped. It is the reference for
// Compute's SCCSizes/NonTrivialSCCs, which are derived from the one
// condensation of the full dependence graph instead.
func realSCCs(l *ir.Loop) (sizes []int, nonTrivial [][]int) {
	n := l.NumOps()
	start, stop := l.Start(), l.Stop()
	deg := make([]int, n)
	for _, e := range l.Edges {
		if e.From == start || e.To == stop || e.From == stop || e.To == start {
			continue
		}
		deg[e.From]++
	}
	g := graph.NewDegreed(n, deg)
	for _, e := range l.Edges {
		if e.From == start || e.To == stop || e.From == stop || e.To == start {
			continue
		}
		g.AddEdge(e.From, e.To)
	}
	for _, comp := range g.SCCs() {
		if len(comp) == 1 && (comp[0] == start || comp[0] == stop) {
			continue
		}
		sizes = append(sizes, len(comp))
		if len(comp) > 1 {
			nonTrivial = append(nonTrivial, comp)
		}
	}
	return sizes, nonTrivial
}

// sortedCopy returns s sorted, leaving s as it is.
func sortedCopy(s []int) []int {
	c := slices.Clone(s)
	slices.Sort(c)
	return c
}

// canonicalSCCs sorts each component and then the component list, so two
// partitions compare equal as multisets.
func canonicalSCCs(comps [][]int) [][]int {
	out := make([][]int, len(comps))
	for i, c := range comps {
		out[i] = sortedCopy(c)
	}
	slices.SortFunc(out, slices.Compare)
	return out
}

const maxFuzzEdges = 10

// fuzzLoop decodes data into a loop of 2–7 real ops on m: a chain of
// fadds, then one explicit edge per 3 input bytes (endpoints, distance
// 0–3 and delay 0–11), so self edges at every distance, parallel edges
// and multi-node recurrences all occur. At most 10 explicit edges keep
// the parallel-edge combinations per circuit far below RecMIIByCircuits'
// exact-evaluation cap.
func fuzzLoop(t *testing.T, m *machine.Machine, data []byte) (*ir.Loop, []int) {
	if len(data) == 0 {
		return nil, nil
	}
	n := 2 + int(data[0])%6
	data = data[1:]
	return buildLoop(t, m, func(b *ir.Builder) {
		prev := b.Invariant("a")
		ops := make([]ir.Op, n)
		for i := range ops {
			v := b.Define("fadd", prev, b.Invariant("c"))
			ops[i] = b.OpOf(v)
			prev = v
		}
		for k := 0; k+3 <= len(data) && k < 3*maxFuzzEdges; k += 3 {
			from, to := ops[int(data[k])%n], ops[int(data[k+1])%n]
			b.DepDelay(from, to, ir.Flow, int(data[k+2]&3), int(data[k+2]>>2)%12)
		}
	})
}

// FuzzRecMIIMatchesCircuits checks the per-SCC RecMII (closed form for
// singletons, MinDist search otherwise) against elementary-circuit
// enumeration, and Compute's SCC statistics against realSCCs.
func FuzzRecMIIMatchesCircuits(f *testing.F) {
	f.Add([]byte{3, 0, 0, 4, 1, 1, 9, 2, 2, 0})
	f.Add([]byte{4, 0, 2, 5, 2, 0, 6, 1, 1, 13, 3, 3, 2})
	f.Add([]byte{5, 0, 1, 0, 1, 2, 0, 2, 0, 45, 3, 3, 3, 4, 4, 44})
	f.Add([]byte{2, 1, 1, 8, 0, 1, 5, 1, 0, 7, 1, 0, 30})
	m := machine.Cydra5()
	f.Fuzz(func(t *testing.T, data []byte) {
		l, delays := fuzzLoop(t, m, data)
		if l == nil {
			return
		}
		rec, err := RecurrenceMII(l, delays, 1, nil)
		if err != nil {
			// A zero-distance circuit of positive delay, which circuit
			// enumeration skips (it has no II bound to offer).
			if !errors.Is(err, scherr.ErrNoSchedule) {
				t.Fatalf("RecurrenceMII: %v", err)
			}
			return
		}
		circ, exact, err := RecMIIByCircuits(l, delays, 100000)
		if err != nil {
			t.Fatal(err)
		}
		if exact && circ != rec {
			t.Fatalf("RecurrenceMII = %d, circuits = %d\n%s", rec, circ, l)
		}
		checkSCCStats(t, l, m, delays)
	})
}

// checkSCCStats compares Compute's SCCSizes and NonTrivialSCCs with
// realSCCs as multisets (their orders may differ).
func checkSCCStats(t *testing.T, l *ir.Loop, m *machine.Machine, delays []int) {
	t.Helper()
	res, err := Compute(l, m, delays, nil)
	if err != nil {
		t.Fatal(err)
	}
	sizes, nonTrivial := realSCCs(l)
	if !slices.Equal(sortedCopy(res.SCCSizes), sortedCopy(sizes)) {
		t.Fatalf("SCCSizes = %v, reference %v\n%s", res.SCCSizes, sizes, l)
	}
	got, want := canonicalSCCs(res.NonTrivialSCCs), canonicalSCCs(nonTrivial)
	if !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("NonTrivialSCCs = %v, reference %v\n%s", got, want, l)
	}
}

// TestSCCStatsMatchReference runs the realSCCs cross-check over 300
// generated corpus loops.
func TestSCCStatsMatchReference(t *testing.T) {
	m := machine.Cydra5()
	cfg := loopgen.DefaultConfig()
	cfg.N = 300
	loops, err := loopgen.Generate(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range loops {
		delays, err := ir.Delays(l, m, ir.VLIWDelays)
		if err != nil {
			t.Fatal(err)
		}
		checkSCCStats(t, l, m, delays)
	}
}

// largeLoopConfig is the bench's schedule-large population: 64 to 163
// operations, where the MII computation's per-loop terms show.
var largeLoopConfig = loopgen.Config{
	N: 200, MedianOps: 110, SigmaOps: 0.25, MinOps: 64, MaxOps: 163,
	VectorizableFrac: 0.05, InitLoopFrac: 0.01, PredicatedFrac: 0.3,
}

// resultSink keeps benchmarked results live.
var resultSink *Result

// BenchmarkComputeMIILarge times one mii.ComputeScratch (ResMII, RecMII,
// SCC statistics) per op over schedule-large-shaped loops, with the
// scheduler's reused Scratch.
func BenchmarkComputeMIILarge(b *testing.B) {
	cgra, err := machine.LoadMachineFile("../../testdata/machines/cgra4x4.mach")
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []*machine.Machine{machine.Cydra5(), cgra} {
		b.Run(m.Name, func(b *testing.B) {
			loops, err := loopgen.Generate(largeLoopConfig, m)
			if err != nil {
				b.Fatal(err)
			}
			delays := make([][]int, len(loops))
			for i, l := range loops {
				if delays[i], err = ir.Delays(l, m, ir.VLIWDelays); err != nil {
					b.Fatal(err)
				}
			}
			var ws Scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % len(loops)
				res, err := ComputeScratch(nil, loops[k], m, delays[k], nil, &ws)
				if err != nil {
					b.Fatal(err)
				}
				resultSink = res
			}
		})
	}
}
