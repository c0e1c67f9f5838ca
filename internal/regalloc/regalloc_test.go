package regalloc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"modsched/internal/ir"
)

func TestSteadyStatePacking(t *testing.T) {
	wands := []Wand{
		{Reg: 1, Stage: 0, Life: 2},
		{Reg: 2, Stage: 1, Life: 0},
		{Reg: 3, Stage: 0, Life: 5},
	}
	a, err := AllocateRotating(wands)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Verify(); err != nil {
		t.Fatal(err)
	}
	// Greedy packing should stay near the lower bound sum(Life+1) = 10.
	if a.Size > 12 {
		t.Errorf("file size %d much larger than lower bound 10", a.Size)
	}
}

func TestLiveInExtension(t *testing.T) {
	// The dot-product shape that originally broke the naive allocator: a
	// late-stage accumulator whose live-in is read seven passes in.
	wands := []Wand{
		{Reg: 1, Stage: 0, Life: 1, Virtuals: []Virtual{{V: -1, LastRead: 0}}},
		{Reg: 2, Stage: 0, Life: 5},
		{Reg: 3, Stage: 0, Life: 1, Virtuals: []Virtual{{V: -1, LastRead: 0}}},
		{Reg: 4, Stage: 0, Life: 5},
		{Reg: 5, Stage: 5, Life: 2},
		{Reg: 6, Stage: 7, Life: 1, Virtuals: []Virtual{{V: 6, LastRead: 7}}},
	}
	a, err := AllocateRotating(wands)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestSelfConflictGrowsFile(t *testing.T) {
	// A single wand with a long life forces the file beyond its width.
	a, err := AllocateRotating([]Wand{{Reg: 1, Stage: 0, Life: 9}})
	if err != nil {
		t.Fatal(err)
	}
	if a.Size < 10 {
		t.Errorf("size %d too small for life 9", a.Size)
	}
	if err := a.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestMalformedWandRejected(t *testing.T) {
	if _, err := AllocateRotating([]Wand{{Reg: 1, Stage: 0, Life: -1}}); err == nil {
		t.Error("negative life accepted")
	}
	if _, err := AllocateRotating([]Wand{{Reg: 1, Stage: 2, Life: 0, Virtuals: []Virtual{{V: 3, LastRead: 4}}}}); err == nil {
		t.Error("virtual at/after stage accepted")
	}
	if _, err := AllocateRotating([]Wand{{Reg: 1, Stage: 2, Virtuals: []Virtual{{V: 0, LastRead: 1}, {V: 0, LastRead: 2}}}}); err == nil {
		t.Error("two virtuals at one pass accepted")
	}
	if _, err := AllocateRotating([]Wand{{Reg: 1, Stage: 2, Virtuals: []Virtual{{V: 1, LastRead: 1}, {V: 0, LastRead: 2}}}}); err == nil {
		t.Error("virtuals out of V order accepted")
	}
}

func TestPhysRotation(t *testing.T) {
	a, err := AllocateRotating([]Wand{{Reg: 1, Stage: 0, Life: 0}, {Reg: 2, Stage: 0, Life: 0}})
	if err != nil {
		t.Fatal(err)
	}
	// Consecutive passes use consecutive (decreasing) cells, mod size.
	p0 := a.Phys(1, 0)
	p1 := a.Phys(1, 1)
	if (p0-p1+a.Size)%a.Size != 1 {
		t.Errorf("rotation step wrong: pass0 %d pass1 %d", p0, p1)
	}
	if a.Phys(1, 0) != a.Phys(1, a.Size) {
		t.Error("rotation must be periodic with the file size")
	}
}

func TestPhysPanicsOnUnknownReg(t *testing.T) {
	a, _ := AllocateRotating([]Wand{{Reg: 1}})
	defer func() {
		if recover() == nil {
			t.Error("Phys on unknown register should panic")
		}
	}()
	a.Phys(99, 0)
}

// Property: for random wand sets, the analytic packing always passes the
// exhaustive replay verification.
func TestAllocationAlwaysVerifies(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		wands := make([]Wand, n)
		for i := range wands {
			st := rng.Intn(8)
			w := Wand{Reg: ir.Reg(i + 1), Stage: st, Life: rng.Intn(6)}
			if st > 0 && rng.Float64() < 0.5 {
				d := 1 + rng.Intn(3)
				for k := 0; k < d && k < st+d; k++ {
					v := k - d + st
					if v >= st {
						continue
					}
					w.Virtuals = append(w.Virtuals, Virtual{V: v, LastRead: k + st + rng.Intn(3)})
				}
			}
			wands[i] = w
		}
		a, err := AllocateRotating(wands)
		if err != nil {
			return true // malformed request (shouldn't happen here)
		}
		return a.Verify() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// Property: packing is reasonably tight — never more than the sum of the
// worst-case spans.
func TestAllocationBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		wands := make([]Wand, n)
		bound := 1
		for i := range wands {
			wands[i] = Wand{Reg: ir.Reg(i + 1), Stage: rng.Intn(4), Life: rng.Intn(5)}
			bound += wands[i].Stage + wands[i].Life + 1
		}
		a, err := AllocateRotating(wands)
		if err != nil {
			return false
		}
		return a.Size <= 2*bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// A bad allocation with two collisions must report the same one on every
// call.
func TestVerifyReportIsDeterministic(t *testing.T) {
	a := &Rotating{
		Base: map[ir.Reg]int{1: 0, 2: 0, 3: 2, 4: 2},
		Size: 4,
		wands: []Wand{
			{Reg: 1, Stage: 0, Life: 1},
			{Reg: 2, Stage: 0, Life: 1},
			{Reg: 3, Stage: 0, Life: 1},
			{Reg: 4, Stage: 0, Life: 1},
		},
	}
	first := a.Verify()
	if first == nil {
		t.Fatal("Verify accepted two wands sharing a base")
	}
	for i := 0; i < 20; i++ {
		if err := a.Verify(); err == nil || err.Error() != first.Error() {
			t.Fatalf("call %d reported %v, first call %v", i, err, first)
		}
	}
}
