package core

import (
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"modsched/internal/ir"
	"modsched/internal/machine"
	"modsched/internal/mii"
)

func build(t testing.TB, m *machine.Machine, f func(b *ir.Builder)) *ir.Loop {
	t.Helper()
	b := ir.NewBuilder("t", m)
	f(b)
	l, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestScheduleAchievesMIIOnSimpleLoop(t *testing.T) {
	m := machine.Cydra5()
	l := build(t, m, func(b *ir.Builder) {
		x := b.Define("load", b.Invariant("p"))
		y := b.Define("fmul", x, b.Invariant("c"))
		b.Effect("store", b.Invariant("q"), y)
		b.Effect("brtop")
	})
	s, err := ModuloSchedule(l, m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if s.II != s.MII {
		t.Errorf("II=%d MII=%d: simple loop must achieve MII", s.II, s.MII)
	}
	if s.II != 1 {
		t.Errorf("II=%d, want 1 (one op per unit)", s.II)
	}
}

func TestScheduleRespectsRecurrence(t *testing.T) {
	m := machine.Cydra5()
	l := build(t, m, func(b *ir.Builder) {
		s := b.Future()
		b.DefineAs(s, "fadd", s.Back(1), b.Invariant("x"))
		b.Effect("brtop")
	})
	s, err := ModuloSchedule(l, m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if s.II != 4 {
		t.Errorf("accumulator II=%d, want 4 (fadd latency)", s.II)
	}
}

func TestSTARTPinnedAtZeroAndSLIsStop(t *testing.T) {
	m := machine.Cydra5()
	l := build(t, m, func(b *ir.Builder) {
		x := b.Define("load", b.Invariant("p"))
		b.Define("fadd", x, x)
		b.Effect("brtop")
	})
	s, err := ModuloSchedule(l, m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if s.Times[l.Start()] != 0 {
		t.Error("START must stay at time 0")
	}
	if s.Length != s.Times[l.Stop()] {
		t.Error("Length must equal STOP's time")
	}
	// SL covers the load->fadd critical path: 20 + 4.
	if s.Length < 24 {
		t.Errorf("SL = %d, want >= 24", s.Length)
	}
}

func TestBudgetTooSmallRaisesII(t *testing.T) {
	m := machine.Cydra5()
	mk := func() *ir.Loop {
		return build(t, m, func(b *ir.Builder) {
			a := b.Invariant("a")
			vals := make([]ir.Value, 0, 8)
			for i := 0; i < 4; i++ {
				vals = append(vals, b.Define("fadd", a, a))
				vals = append(vals, b.Define("fmul", a, a))
			}
			x := vals[0]
			for _, v := range vals[1:] {
				x = b.Define("fadd", x, v)
			}
			b.Effect("brtop")
		})
	}
	big := DefaultOptions()
	big.BudgetRatio = 8
	sBig, err := ModuloSchedule(mk(), m, big)
	if err != nil {
		t.Fatal(err)
	}
	small := DefaultOptions()
	small.BudgetRatio = 1.01
	sSmall, err := ModuloSchedule(mk(), m, small)
	if err != nil {
		t.Fatal(err)
	}
	if sSmall.II < sBig.II {
		t.Errorf("smaller budget yielded better II (%d < %d)?", sSmall.II, sBig.II)
	}
	if sSmall.Stats.IIAttempts < sBig.Stats.IIAttempts {
		t.Errorf("smaller budget should need at least as many II attempts")
	}
}

func TestEvictionHappensOnContendedLoop(t *testing.T) {
	m := machine.Cydra5()
	// Mixed adds/muls contending for the shared buses force displacement.
	l := build(t, m, func(b *ir.Builder) {
		a := b.Invariant("a")
		var last ir.Value
		for i := 0; i < 6; i++ {
			last = b.Define("fadd", a, a)
			last = b.Define("fmul", last, a)
		}
		_ = last
		b.Effect("brtop")
	})
	opts := DefaultOptions()
	opts.BudgetRatio = 6
	s, err := ModuloSchedule(l, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats.SchedSteps <= int64(l.NumOps()) && s.Stats.Unschedules == 0 && s.II == s.MII {
		t.Log("no eviction needed; acceptable but unexpected on this machine")
	}
	if err := Check(s); err != nil {
		t.Fatal(err)
	}
}

func TestCheckCatchesViolations(t *testing.T) {
	m := machine.Cydra5()
	l := build(t, m, func(b *ir.Builder) {
		x := b.Define("load", b.Invariant("p"))
		y := b.Define("fadd", x, x)
		b.Effect("store", b.Invariant("q"), y)
		b.Effect("brtop")
	})
	s, err := ModuloSchedule(l, m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	// Dependence violation: move the fadd to issue with its producer.
	bad := *s
	bad.Times = append([]int(nil), s.Times...)
	bad.Times[2] = bad.Times[1]
	if err := Check(&bad); err == nil || !strings.Contains(err.Error(), "violated") {
		t.Errorf("dependence violation not caught: %v", err)
	}

	// Resource violation: two loads on the same port same modulo slot.
	l2 := build(t, m, func(b *ir.Builder) {
		b.Define("load", b.Invariant("p"))
		b.Define("load", b.Invariant("p"))
		b.Effect("brtop")
	})
	s2, err := ModuloSchedule(l2, m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	bad2 := *s2
	bad2.Alts = append([]int(nil), s2.Alts...)
	bad2.Times = append([]int(nil), s2.Times...)
	bad2.Alts[1] = s2.Alts[2]   // both loads on the same port...
	bad2.Times[1] = s2.Times[2] // ...in the same cycle
	if err := Check(&bad2); err == nil || !strings.Contains(err.Error(), "oversubscribes") {
		t.Errorf("resource violation not caught: %v", err)
	}

	// Unscheduled op.
	bad3 := *s
	bad3.Times = append([]int(nil), s.Times...)
	bad3.Times[1] = -1
	if err := Check(&bad3); err == nil {
		t.Error("unscheduled op not caught")
	}

	// Bad II.
	bad4 := *s
	bad4.II = 0
	if err := Check(&bad4); err == nil {
		t.Error("II=0 not caught")
	}
}

func TestPriorityKindsAllProduceValidSchedules(t *testing.T) {
	m := machine.Cydra5()
	rng := rand.New(rand.NewSource(3))
	for _, pk := range []PriorityKind{PriorityHeightR, PriorityFIFO, PriorityDepth, PriorityRecFirst} {
		for trial := 0; trial < 15; trial++ {
			l := randomLoop(t, m, rng)
			opts := DefaultOptions()
			opts.Priority = pk
			opts.BudgetRatio = 6
			s, err := ModuloSchedule(l, m, opts)
			if err != nil {
				t.Fatalf("%v trial %d: %v", pk, trial, err)
			}
			if err := Check(s); err != nil {
				t.Fatalf("%v trial %d: %v", pk, trial, err)
			}
		}
	}
}

func TestHeightRBeatsNaivePrioritiesOnAverage(t *testing.T) {
	m := machine.Cydra5()
	rng := rand.New(rand.NewSource(99))
	var sumHR, sumFIFO int64
	for trial := 0; trial < 60; trial++ {
		l := randomLoop(t, m, rng)
		for _, pk := range []PriorityKind{PriorityHeightR, PriorityFIFO} {
			opts := DefaultOptions()
			opts.Priority = pk
			s, err := ModuloSchedule(l, m, opts)
			if err != nil {
				t.Fatal(err)
			}
			if pk == PriorityHeightR {
				sumHR += int64(s.II)
			} else {
				sumFIFO += int64(s.II)
			}
		}
	}
	if sumHR > sumFIFO {
		t.Errorf("HeightR total II %d worse than FIFO %d", sumHR, sumFIFO)
	}
}

func TestConservativeDelaysNeverBelowVLIW(t *testing.T) {
	m := machine.Cydra5()
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		l := randomLoop(t, m, rng)
		iis := map[ir.DelayModel]int{}
		for _, dm := range []ir.DelayModel{ir.VLIWDelays, ir.ConservativeDelays} {
			opts := DefaultOptions()
			opts.DelayModel = dm
			opts.BudgetRatio = 6
			s, err := ModuloSchedule(l, m, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := Check(s); err != nil {
				t.Fatal(err)
			}
			iis[dm] = s.MII
		}
		// Conservative delays are >= VLIW delays edge-wise, so the
		// recurrence bound (and hence MII) cannot be smaller.
		if iis[ir.ConservativeDelays] < iis[ir.VLIWDelays] {
			t.Errorf("trial %d: conservative MII %d < VLIW MII %d", trial,
				iis[ir.ConservativeDelays], iis[ir.VLIWDelays])
		}
	}
}

func TestRestartAblationValidButWeaker(t *testing.T) {
	m := machine.Cydra5()
	rng := rand.New(rand.NewSource(23))
	var evict, restart int64
	for trial := 0; trial < 40; trial++ {
		l := randomLoop(t, m, rng)
		for _, r := range []bool{false, true} {
			opts := DefaultOptions()
			opts.RestartOnFailure = r
			s, err := ModuloSchedule(l, m, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := Check(s); err != nil {
				t.Fatal(err)
			}
			if r {
				restart += int64(s.II)
			} else {
				evict += int64(s.II)
			}
		}
	}
	if evict > restart {
		t.Errorf("eviction total II %d worse than restart %d", evict, restart)
	}
}

func TestMaxIICapRespected(t *testing.T) {
	m := machine.Cydra5()
	l := build(t, m, func(b *ir.Builder) {
		s := b.Future()
		b.DefineAs(s, "fadd", s.Back(1), b.Invariant("x")) // MII 4
		b.Effect("brtop")
	})
	opts := DefaultOptions()
	opts.MaxII = 2
	if _, err := ModuloSchedule(l, m, opts); err == nil {
		t.Error("MaxII below MII must fail")
	}
}

// randomLoop builds a schedulable random loop mixing streams, arithmetic,
// recurrences and predication.
func randomLoop(t testing.TB, m *machine.Machine, rng *rand.Rand) *ir.Loop {
	t.Helper()
	b := ir.NewBuilder("rand", m)
	var vals []ir.Value
	pick := func() ir.Value {
		if len(vals) == 0 || rng.Float64() < 0.25 {
			return b.Invariant("inv")
		}
		return vals[rng.Intn(len(vals))]
	}
	nStream := 1 + rng.Intn(3)
	for i := 0; i < nStream; i++ {
		ai := b.Future()
		b.DefineAsImm(ai, "aadd", 24, ai.Back(3))
		vals = append(vals, b.Define("load", ai))
	}
	if rng.Float64() < 0.5 {
		s := b.Future()
		ln := 1 + rng.Intn(3)
		prev := s.Back(1 + rng.Intn(2))
		for i := 0; i < ln; i++ {
			if i == ln-1 {
				prev = b.DefineAs(s, "fadd", prev, pick())
			} else {
				prev = b.Define("fmul", prev, pick())
			}
			vals = append(vals, prev)
		}
	}
	if rng.Float64() < 0.4 {
		p := b.Define("cmp", pick(), b.Invariant("lim"))
		vals = append(vals, p)
		b.SetPred(p)
		vals = append(vals, b.Define("fadd", pick(), pick()))
		b.ClearPred()
	}
	for i := rng.Intn(6); i > 0; i-- {
		ops := []string{"fadd", "fmul", "add", "sub"}
		vals = append(vals, b.Define(ops[rng.Intn(len(ops))], pick(), pick()))
	}
	si := b.Future()
	b.DefineAsImm(si, "aadd", 24, si.Back(3))
	b.Effect("store", si, pick())
	b.Effect("brtop")
	l, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestScheduleValidityProperty: any random loop's schedule passes the
// independent checker, achieves II >= MII >= ResMII, and schedules every
// op at least once within budget accounting.
func TestScheduleValidityProperty(t *testing.T) {
	m := machine.Cydra5()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := randomLoop(t, m, rng)
		s, err := ModuloSchedule(l, m, DefaultOptions())
		if err != nil {
			return false
		}
		if Check(s) != nil {
			return false
		}
		if _, err := ir.Delays(l, m, ir.VLIWDelays); err != nil {
			return false
		}
		res, _, err := mii.ResMII(l, m, nil)
		if err != nil {
			return false
		}
		return s.II >= s.MII && s.MII >= res &&
			s.Stats.SchedStepsFinal >= int64(l.NumOps())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestScheduleDeterminism: the scheduler is deterministic for a fixed
// input.
func TestScheduleDeterminism(t *testing.T) {
	m := machine.Cydra5()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		l := randomLoop(t, m, rng)
		a, err := ModuloSchedule(l, m, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		b, err := ModuloSchedule(l, m, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if a.II != b.II || a.Length != b.Length {
			t.Fatalf("nondeterministic: II %d/%d SL %d/%d", a.II, b.II, a.Length, b.Length)
		}
		for i := range a.Times {
			if a.Times[i] != b.Times[i] || a.Alts[i] != b.Alts[i] {
				t.Fatalf("nondeterministic placement of op %d", i)
			}
		}
	}
}

func TestGenericMachinesScheduleEverything(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, m := range []*machine.Machine{machine.Tiny(), machine.Generic(machine.DefaultUnitConfig())} {
		for trial := 0; trial < 25; trial++ {
			l := randomLoop(t, m, rng)
			s, err := ModuloSchedule(l, m, DefaultOptions())
			if err != nil {
				t.Fatalf("%s trial %d: %v", m.Name, trial, err)
			}
			if err := Check(s); err != nil {
				t.Fatalf("%s trial %d: %v", m.Name, trial, err)
			}
		}
	}
}

func TestStageCount(t *testing.T) {
	s := &Schedule{II: 4, Length: 9}
	if s.StageCount() != 3 {
		t.Errorf("StageCount = %d, want 3", s.StageCount())
	}
	s = &Schedule{II: 4, Length: 8}
	if s.StageCount() != 2 {
		t.Errorf("StageCount = %d, want 2", s.StageCount())
	}
	s = &Schedule{II: 4, Length: 0}
	if s.StageCount() != 1 {
		t.Errorf("StageCount = %d, want 1 (minimum)", s.StageCount())
	}
}

// TestParsePriorityRoundTrip pins ParsePriority as the inverse of String
// for every priority kind, and the exact diagnostic for an unknown name
// (msched and the server both print it verbatim).
func TestParsePriorityRoundTrip(t *testing.T) {
	for _, p := range []PriorityKind{PriorityHeightR, PriorityFIFO, PriorityDepth, PriorityRecFirst} {
		got, err := ParsePriority(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePriority(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
	for _, bad := range []string{"", "HeightR", "PriorityKind(4)", "lifo"} {
		_, err := ParsePriority(bad)
		if want := "unknown priority " + strconv.Quote(bad); err == nil || err.Error() != want {
			t.Errorf("ParsePriority(%q) error = %v; want %s", bad, err, want)
		}
	}
}
