package core

import (
	"testing"

	"modsched/internal/loopgen"
	"modsched/internal/machine"
)

// probeState builds a state whose MRT holds a finished schedule of a
// mid-size Cydra 5 loop, ready for fit probes: the exact workload of the
// findTimeSlot inner loop, without the surrounding search mutating
// anything.
func probeState(tb testing.TB, scan bool) *state {
	tb.Helper()
	m := machine.Cydra5()
	loops, err := loopgen.Generate(loopgen.Config{Seed: 42, N: 30, MaxOps: 60}, m)
	if err != nil {
		tb.Fatal(err)
	}
	best := loops[0]
	for _, l := range loops {
		if l.NumOps() > best.NumOps() {
			best = l
		}
	}
	sched, err := ModuloSchedule(best, m, DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	opts := DefaultOptions()
	opts.scanMRT = scan
	var c Counters
	p, err := newProblem(nil, best, m, opts, &c)
	if err != nil {
		tb.Fatal(err)
	}
	s := newState(p, sched.II)
	for op, t := range sched.Times {
		tab := p.opcode[op].Alternatives[sched.Alts[op]].Table
		if len(tab.Uses) > 0 {
			s.mrt.place(op, t, tab)
		}
	}
	return s
}

// probeAll sweeps fittingAlternative over every op and two IIs' worth of
// candidate slots against the fully occupied MRT.
func probeAll(s *state) int {
	hits := 0
	n := s.p.loop.NumOps()
	for op := 0; op < n; op++ {
		for t := 0; t < 2*s.ii; t++ {
			if s.fittingAlternative(op, t) >= 0 {
				hits++
			}
		}
	}
	return hits
}

// TestProbePathsAgree pins that the two benchmark fixtures measure the
// same work: every (op, slot) probe answers identically.
func TestProbePathsAgree(t *testing.T) {
	fast := probeState(t, false)
	ref := probeState(t, true)
	n := fast.p.loop.NumOps()
	for op := 0; op < n; op++ {
		for tt := 0; tt < 2*fast.ii; tt++ {
			if a, b := fast.fittingAlternative(op, tt), ref.fittingAlternative(op, tt); a != b {
				t.Fatalf("op %d t %d: bitset alternative %d, scan %d", op, tt, a, b)
			}
		}
	}
}

// BenchmarkFindTimeSlot measures the findTimeSlot inner question — "does
// any alternative of this op fit at this slot?" — against a fully
// occupied MRT, compiled masks versus the reference scan.
func BenchmarkFindTimeSlot(b *testing.B) {
	for _, v := range []struct {
		name string
		scan bool
	}{{"bitset", false}, {"scan", true}} {
		s := probeState(b, v.scan)
		want := probeAll(s)
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := probeAll(s); got != want {
					b.Fatalf("probe hits changed: %d != %d", got, want)
				}
			}
		})
	}
}

// BenchmarkMRTConflicts measures the allocation-free victim scan of
// mrt.conflicts on an occupied table; the gate keeps it at zero
// allocs/op.
func BenchmarkMRTConflicts(b *testing.B) {
	s := probeState(b, true)
	m := s.mrt
	// Probe with the widest table on the machine: a Cydra 5 fmul
	// alternative touching many source/result buses.
	tab := s.p.mach.MustOpcode("fmul").Alternatives[0].Table
	if got := m.conflicts(1, tab); len(got) == 0 {
		b.Fatal("probe table conflicts with nothing; benchmark would measure an empty scan")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := m.conflicts(i%s.ii, tab); len(got) > 64 {
			b.Fatal("impossible victim count")
		}
	}
}
