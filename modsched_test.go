package modsched_test

import (
	"context"
	"strings"
	"testing"

	"modsched"
)

// TestPublicAPIQuickstart drives the documented public surface end to end:
// builder -> bounds -> schedule -> both code schemas -> simulation.
func TestPublicAPIQuickstart(t *testing.T) {
	m := modsched.Cydra5()
	b := modsched.NewBuilder("daxpy", m)
	xi := b.Future()
	b.DefineAsImm(xi, "aadd", 8, xi.Back(1))
	x := b.Define("load", xi)
	yi := b.Future()
	b.DefineAsImm(yi, "aadd", 8, yi.Back(1))
	y := b.Define("load", yi)
	t1 := b.Define("fmul", b.Invariant("a"), x)
	t2 := b.Define("fadd", y, t1)
	si := b.Future()
	b.DefineAsImm(si, "aadd", 8, si.Back(1))
	b.Effect("store", si, t2)
	b.Effect("brtop")
	loop, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	bounds, err := modsched.ComputeMII(loop, m, modsched.VLIWDelays)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := modsched.Compile(context.Background(), loop, m, modsched.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if sched.MII != bounds.MII || sched.II < sched.MII {
		t.Errorf("II=%d MII=%d boundsMII=%d", sched.II, sched.MII, bounds.MII)
	}
	if err := modsched.CheckSchedule(sched); err != nil {
		t.Fatal(err)
	}

	ls, err := modsched.ListSchedules(loop, m, modsched.VLIWDelays)
	if err != nil {
		t.Fatal(err)
	}
	if ls.Length > sched.Length {
		t.Errorf("acyclic list SL %d should not exceed modulo SL %d", ls.Length, sched.Length)
	}

	kern, err := modsched.GenerateKernel(sched)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(kern.String(), "kernel daxpy") {
		t.Error("kernel rendering broken")
	}

	u, err := modsched.PlanUnroll(sched)
	if err != nil {
		t.Fatal(err)
	}
	trips := modsched.ValidTrips(sched.StageCount(), u, 40)
	flat, err := modsched.GenerateFlat(sched, trips)
	if err != nil {
		t.Fatal(err)
	}

	mem := map[int64]float64{}
	for i := int64(0); i < trips; i++ {
		mem[1000+8*(i+1)] = 2
		mem[50000+8*(i+1)] = 1
	}
	spec := modsched.RunSpec{
		Init: map[modsched.Reg]float64{
			b.RegOf(xi): 1000, b.RegOf(yi): 50000, b.RegOf(si): 50000,
			b.RegOf(b.Invariant("a")): 10,
		},
		Mem:   mem,
		Trips: trips,
	}
	ref, err := modsched.RunReference(loop, spec)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := modsched.RunKernel(kern, m, spec)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := modsched.RunFlat(flat, m, spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < trips; i++ {
		a := int64(50000 + 8*(i+1))
		if ref.Mem[a] != 21 {
			t.Fatalf("reference y[%d] = %v, want 21", i, ref.Mem[a])
		}
		if r1.Mem[a] != 21 || r2.Mem[a] != 21 {
			t.Fatalf("pipelined y[%d] = %v / %v, want 21", i, r1.Mem[a], r2.Mem[a])
		}
	}
}

func TestPublicAPIParseAndPrint(t *testing.T) {
	m := modsched.Tiny()
	src := `
loop t
x = load p
y = fadd x, x
store q, y
brtop
`
	l, err := modsched.ParseLoop(src, m)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(modsched.PrintLoop(l), "fadd") {
		t.Error("print lost ops")
	}
	if _, err := modsched.Compile(context.Background(), l, m, modsched.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPICorpora(t *testing.T) {
	m := modsched.Cydra5()
	ks, err := modsched.LivermoreKernels(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(ks) != 27 {
		t.Errorf("kernels = %d, want 27", len(ks))
	}
	cfg := modsched.DefaultGenConfig()
	cfg.N = 30
	loops, err := modsched.SyntheticCorpus(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(loops) != 30 {
		t.Errorf("synthetic corpus = %d, want 30", len(loops))
	}
	// The full paper corpus is 1300 + 27.
	cfg2 := modsched.DefaultGenConfig()
	if cfg2.N != 1300 {
		t.Errorf("default corpus size = %d, want 1300", cfg2.N)
	}
}

func TestPublicAPICustomMachine(t *testing.T) {
	m := modsched.NewMachine("custom")
	r := m.AddResource("fu")
	m.MustAddOpcode(&modsched.Opcode{Name: "op", Latency: 1,
		Alternatives: []modsched.Alternative{{Name: "fu", Table: modsched.SimpleTableFor(r)}}})
	m.MustAddOpcode(&modsched.Opcode{Name: "START", Latency: 0,
		Alternatives: []modsched.Alternative{{Name: "none"}}})
	m.MustAddOpcode(&modsched.Opcode{Name: "STOP", Latency: 0,
		Alternatives: []modsched.Alternative{{Name: "none"}}})
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	b := modsched.NewBuilder("l", m)
	b.Define("op", b.Invariant("c"))
	b.Define("op", b.Invariant("c"))
	l, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := modsched.Compile(context.Background(), l, m, modsched.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if s.II != 2 {
		t.Errorf("II = %d, want 2 (two ops, one unit)", s.II)
	}
}
