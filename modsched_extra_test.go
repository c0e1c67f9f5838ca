package modsched_test

import (
	"context"
	"testing"

	"modsched"
)

// TestPublicAPIPreprocessing drives the preprocessing surface: structured
// regions through IF-conversion, back-substitution, and the unroll
// baseline.
func TestPublicAPIPreprocessing(t *testing.T) {
	m := modsched.Cydra5()

	// IF-conversion.
	rgn := &modsched.Region{
		Name: "clip",
		Stmts: []modsched.Stmt{
			modsched.Assign{Dest: "xi", Opcode: "aadd", Srcs: []modsched.Ref{{Name: "xi", Back: 1}}, Imm: 8},
			modsched.Assign{Dest: "x", Opcode: "load", Srcs: []modsched.Ref{{Name: "xi"}}},
			modsched.Assign{Dest: "c", Opcode: "cmp", Srcs: []modsched.Ref{{Name: "x"}, {Name: "cap"}}},
			modsched.IfStmt{
				Cond: modsched.Ref{Name: "c"},
				Then: []modsched.Stmt{modsched.Assign{Dest: "y", Opcode: "copy", Srcs: []modsched.Ref{{Name: "x"}}}},
				Else: []modsched.Stmt{modsched.Assign{Dest: "y", Opcode: "copy", Srcs: []modsched.Ref{{Name: "cap"}}}},
			},
			modsched.Assign{Dest: "si", Opcode: "aadd", Srcs: []modsched.Ref{{Name: "si", Back: 1}}, Imm: 8},
			modsched.StoreStmt{Addr: modsched.Ref{Name: "si"}, Val: modsched.Ref{Name: "y"}},
		},
	}
	res, err := modsched.IfConvert(rgn, m)
	if err != nil {
		t.Fatal(err)
	}
	spec := modsched.RegionSpec{
		Vars:       map[string]float64{"xi": 1000, "si": 9000},
		Invariants: map[string]float64{"cap": 5},
		Mem:        map[int64]float64{1008: 3, 1016: 9},
		Trips:      2,
	}
	want, err := modsched.RunStructured(rgn, spec)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := modsched.RunReference(res.Loop, res.ToRunSpec(spec))
	if err != nil {
		t.Fatal(err)
	}
	if ref.Mem[9008] != want.Mem[9008] || ref.Mem[9016] != want.Mem[9016] {
		t.Errorf("if-converted semantics differ: %v vs %v", ref.Mem, want.Mem)
	}

	// Back-substitution.
	l2, rewrites, err := modsched.BackSubstitute(res.Loop, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rewrites) == 0 {
		t.Error("no inductions rewritten")
	}
	if h := modsched.ExtendHist([]float64{100}, 8, 1, 3); h[2] != 84 {
		t.Errorf("ExtendHist = %v", h)
	}
	if _, err := modsched.Compile(context.Background(), l2, m, modsched.DefaultOptions()); err != nil {
		t.Fatal(err)
	}

	// Unroll baseline.
	u, err := modsched.UnrollLoop(res.Loop, 3)
	if err != nil {
		t.Fatal(err)
	}
	if u.NumRealOps() != 3*res.Loop.NumRealOps() {
		t.Errorf("unroll x3: %d ops, want %d", u.NumRealOps(), 3*res.Loop.NumRealOps())
	}
}

// TestPublicAPISlackAndWhile exercises the second algorithm and the
// while-loop simulator through the facade.
func TestPublicAPISlackAndWhile(t *testing.T) {
	m := modsched.Cydra5()

	b := modsched.NewBuilder("wl", m)
	xi := b.Future()
	b.DefineAsImm(xi, "aadd", 8, xi.Back(1))
	x := b.Define("load", xi)
	cont := b.Future()
	b.DefineAs(cont, "cmp", x, b.Invariant("limit"))
	valid := b.Future()
	b.DefineAs(valid, "mul", valid.Back(1), cont.Back(1))
	si := b.Future()
	b.DefineAsImm(si, "aadd", 8, si.Back(1))
	b.SetPred(valid)
	b.Effect("store", si, x)
	b.ClearPred()
	b.Effect("brtop", cont)
	loop, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	sched, err := modsched.CompileSlack(context.Background(), loop, m, modsched.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := modsched.CheckSchedule(sched); err != nil {
		t.Fatal(err)
	}

	kern, err := modsched.GenerateKernel(sched)
	if err != nil {
		t.Fatal(err)
	}
	mem := map[int64]float64{}
	for i := int64(0); i < 30; i++ {
		v := float64(1)
		if i == 9 {
			v = 99
		}
		mem[4000+8*(i+1)] = v
	}
	spec := modsched.RunSpec{
		Init: map[modsched.Reg]float64{
			b.RegOf(xi): 4000, b.RegOf(si): 20000,
			b.RegOf(b.Invariant("limit")): 50,
			b.RegOf(cont):                 1,
			b.RegOf(valid):                1,
		},
		Mem: mem,
	}
	got, err := modsched.RunKernelWhile(kern, m, spec, 500)
	if err != nil {
		t.Fatal(err)
	}
	copied := 0
	for i := int64(0); i < 30; i++ {
		if _, ok := got.Mem[20000+8*(i+1)]; ok {
			copied++
		}
	}
	if copied != 10 {
		t.Errorf("copied %d elements, want 10 (exit at index 9, inclusive)", copied)
	}
}

// TestPublicAPIBoundsAndTables exercises remaining facade entry points.
func TestPublicAPIBoundsAndTables(t *testing.T) {
	if _, err := modsched.NewTable(modsched.ResourceUse{Resource: 0, Time: -1}); err == nil {
		t.Error("NewTable accepted a negative time")
	}
	tab := modsched.BlockTableFor(2, 3)
	if tab.Span() != 3 {
		t.Errorf("BlockTableFor span %d", tab.Span())
	}
	loops, err := modsched.PaperCorpus(modsched.Cydra5())
	if err != nil {
		t.Fatal(err)
	}
	if len(loops) != 1327 {
		t.Errorf("paper corpus has %d loops, want 1327", len(loops))
	}
}
