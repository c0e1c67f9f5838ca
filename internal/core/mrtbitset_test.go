package core

import (
	"reflect"
	"testing"

	"modsched/internal/ir"
	"modsched/internal/loopgen"
	"modsched/internal/machine"
)

// The compiled-mask MRT path (machine.Compiled + mrt.fitsMask) is a pure
// accelerator of the reference use-by-use scan: same slot, same
// alternative index, schedules and all counters bit-identical. The tests
// in this file pin that contract by compiling everything twice — once per
// path, toggled by Options.scanMRT — and requiring interchangeable
// results.

// assertBitsetEqualsScan schedules l with the compiled-mask path and the
// reference scan and requires the two results — schedule or error — to be
// bit-identical, counters included.
func assertBitsetEqualsScan(t *testing.T, name string, l *ir.Loop, m *machine.Machine, opts Options, algo string) {
	t.Helper()
	run := func(o Options) (*Schedule, error) {
		if algo == AlgoSlack {
			return ModuloScheduleSlack(l, m, o)
		}
		return ModuloSchedule(l, m, o)
	}
	opts.scanMRT = false
	fast, fastErr := run(opts)
	opts.scanMRT = true
	ref, refErr := run(opts)

	if (fastErr == nil) != (refErr == nil) {
		t.Fatalf("%s: bitset err = %v, scan err = %v", name, fastErr, refErr)
	}
	if fastErr != nil {
		if fastErr.Error() != refErr.Error() {
			t.Fatalf("%s: bitset err = %q, scan err = %q", name, fastErr, refErr)
		}
		return
	}
	if fast.II != ref.II || fast.MII != ref.MII || fast.ResMII != ref.ResMII || fast.Length != ref.Length {
		t.Fatalf("%s: bitset II/MII/ResMII/SL = %d/%d/%d/%d, scan = %d/%d/%d/%d",
			name, fast.II, fast.MII, fast.ResMII, fast.Length, ref.II, ref.MII, ref.ResMII, ref.Length)
	}
	if !reflect.DeepEqual(fast.Times, ref.Times) {
		t.Fatalf("%s: bitset Times = %v\nscan Times = %v", name, fast.Times, ref.Times)
	}
	if !reflect.DeepEqual(fast.Alts, ref.Alts) {
		t.Fatalf("%s: bitset Alts = %v, scan Alts = %v", name, fast.Alts, ref.Alts)
	}
	if fast.Stats != ref.Stats {
		t.Fatalf("%s: counters diverge:\nbitset %+v\nscan   %+v", name, fast.Stats, ref.Stats)
	}
}

// TestBitsetMatchesScanCorpus runs the differential battery over three
// machines, a synthetic corpus, and every scheduling variant that touches
// the MRT hot path (early/late placement, restart ablation, the depth
// priority, the slack scheduler).
func TestBitsetMatchesScanCorpus(t *testing.T) {
	machines := []struct {
		name string
		m    *machine.Machine
	}{
		{"cydra5", machine.Cydra5()},
		{"tiny", machine.Tiny()},
		{"generic", machine.Generic(machine.DefaultUnitConfig())},
	}
	n := 40
	if testing.Short() {
		n = 8
	}
	variants := []struct {
		name string
		mut  func(*Options)
		algo string
	}{
		{"default", func(o *Options) {}, AlgoIterative},
		{"placelate", func(o *Options) { o.PlaceLate = true }, AlgoIterative},
		{"restart", func(o *Options) { o.RestartOnFailure = true }, AlgoIterative},
		{"depth", func(o *Options) { o.Priority = PriorityDepth }, AlgoIterative},
		{"slack", func(o *Options) {}, AlgoSlack},
	}
	for _, mk := range machines {
		loops, err := loopgen.Generate(loopgen.Config{Seed: 9_1994, N: n, MaxOps: 40}, mk.m)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range loops {
			for _, v := range variants {
				opts := DefaultOptions()
				v.mut(&opts)
				assertBitsetEqualsScan(t, mk.name+"/"+l.Name+"/"+v.name, l, mk.m, opts, v.algo)
			}
		}
	}
}

// TestBitsetMultiWordMasks exercises masks that span several 64-bit
// words: a 69-resource machine makes even a single MRT row cross a word
// boundary, so every placement tests the sparse multi-word path.
func TestBitsetMultiWordMasks(t *testing.T) {
	m := machine.Generic(machine.UnitConfig{
		MemPorts: 30, ALUs: 30, Multipliers: 8,
		LoadLatency: 3, ALULatency: 1, MulLatency: 3, DivLatency: 10,
	})
	if nr := m.NumResources(); nr < 65 {
		t.Fatalf("test machine has %d resources, need >= 65 for multi-word masks", nr)
	}
	if c := m.Compiled(3); c.Words < 2 {
		t.Fatalf("compiled masks use %d words, want >= 2", c.Words)
	}
	loops, err := loopgen.Generate(loopgen.Config{Seed: 65, N: 20, MaxOps: 60}, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range loops {
		assertBitsetEqualsScan(t, l.Name, l, m, DefaultOptions(), AlgoIterative)
	}
}

// TestMRTConflictsOrderAndAllocs pins the two contracts of the
// allocation-free mrt.conflicts: output order is first-collision order
// (as the old map-dedup version produced, since it appended on first
// sighting), and steady-state calls allocate nothing.
func TestMRTConflictsOrderAndAllocs(t *testing.T) {
	m := newMRT(4, 3)
	tabA := machine.MustTable(machine.ResourceUse{Resource: 0, Time: 0})
	tabB := machine.MustTable(machine.ResourceUse{Resource: 1, Time: 0})
	tabC := machine.MustTable(machine.ResourceUse{Resource: 2, Time: 0})
	m.place(11, 1, tabA)
	m.place(7, 1, tabB)
	m.place(3, 1, tabC)
	// Raw literal: MustTable canonicalizes use order, but conflicts must
	// report victims in the table's own first-collision order.
	probe := machine.ReservationTable{Uses: []machine.ResourceUse{
		{Resource: 1, Time: 0}, // hits 7 first
		{Resource: 0, Time: 0}, // then 11
		{Resource: 1, Time: 4}, // 7 again: deduped
		{Resource: 2, Time: 0}, // then 3
	}}
	want := []int{7, 11, 3}
	if got := m.conflicts(1, probe); !reflect.DeepEqual(got, want) {
		t.Fatalf("conflicts = %v, want %v (first-collision order)", got, want)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if got := m.conflicts(1, probe); len(got) != 3 {
			t.Fatalf("conflicts = %v", got)
		}
	})
	if allocs != 0 {
		t.Errorf("conflicts allocates %.1f per call, want 0", allocs)
	}
}

// TestOccMirrorsOwner pins the occupancy-bitset invariant directly: after
// any place/remove sequence, bit c of occ is set exactly when owner[c]
// holds an op.
func TestOccMirrorsOwner(t *testing.T) {
	m := newMRT(5, 4)
	tabs := []machine.ReservationTable{
		machine.MustTable(machine.ResourceUse{Resource: 0, Time: 0}, machine.ResourceUse{Resource: 2, Time: 3}),
		machine.MustTable(machine.ResourceUse{Resource: 1, Time: 1}),
		machine.MustTable(machine.ResourceUse{Resource: 3, Time: 0}, machine.ResourceUse{Resource: 3, Time: 7}),
	}
	m.place(0, 0, tabs[0])
	m.place(1, 2, tabs[1])
	m.place(2, 4, tabs[2])
	m.remove(1, 2, tabs[1])
	assertOccMirrorsOwner(t, m)
	m.remove(0, 0, tabs[0])
	m.remove(2, 4, tabs[2])
	assertOccMirrorsOwner(t, m)
	for _, w := range m.occ {
		if w != 0 {
			t.Fatal("occ not empty after removing every placement")
		}
	}
}

func assertOccMirrorsOwner(t *testing.T, m *mrt) {
	t.Helper()
	for c := range m.owner {
		bit := m.occ[c>>6]>>(uint(c)&63)&1 == 1
		if bit != (m.owner[c] != -1) {
			t.Fatalf("cell %d: occ bit %v, owner %d", c, bit, m.owner[c])
		}
	}
}
