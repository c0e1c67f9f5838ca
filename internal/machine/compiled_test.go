package machine

import (
	"fmt"
	"reflect"
	"testing"
)

// maskCells expands a rotation's sparse mask back into linear cell
// indices.
func maskCells(ca *CompiledAlt, s int) map[int]bool {
	out := map[int]bool{}
	for _, e := range ca.Mask(s) {
		for b := 0; b < 64; b++ {
			if e.Bits&(1<<uint(b)) != 0 {
				out[int(e.Word)*64+b] = true
			}
		}
	}
	return out
}

func TestCompileTableMatchesBruteForce(t *testing.T) {
	tab := MustTable(
		ResourceUse{Resource: 0, Time: 0},
		ResourceUse{Resource: 2, Time: 3},
		ResourceUse{Resource: 1, Time: 7},
	)
	for _, ii := range []int{1, 2, 3, 5, 8} {
		nres := 3
		ca := CompileTable(tab, ii, nres)
		for s := 0; s < ii; s++ {
			want := map[int]bool{}
			for _, u := range tab.Uses {
				want[((s+u.Time)%ii)*nres+int(u.Resource)] = true
			}
			if got := maskCells(&ca, s); len(got) != len(want) {
				t.Fatalf("II=%d s=%d: mask has %d cells, want %d", ii, s, len(got), len(want))
			} else {
				for c := range want {
					if !got[c] {
						t.Fatalf("II=%d s=%d: cell %d missing from mask", ii, s, c)
					}
				}
			}
		}
		if !ca.SelfOK {
			t.Fatalf("II=%d: distinct-resource table flagged self-colliding", ii)
		}
	}
}

func TestCompileTableSelfCollision(t *testing.T) {
	gap := MustTable(
		ResourceUse{Resource: 0, Time: 0},
		ResourceUse{Resource: 0, Time: 5},
	)
	if ca := CompileTable(gap, 5, 2); ca.SelfOK {
		t.Error("5-apart same-resource uses must self-collide at II=5")
	}
	if ca := CompileTable(gap, 6, 2); !ca.SelfOK {
		t.Error("gap table is placeable at II=6")
	}
}

func TestCompileTableEmpty(t *testing.T) {
	ca := CompileTable(ReservationTable{}, 4, 3)
	if !ca.SelfOK {
		t.Error("empty table must be self-consistent")
	}
	for s := 0; s < 4; s++ {
		if len(ca.Mask(s)) != 0 {
			t.Fatalf("rotation %d of the empty table is non-empty", s)
		}
	}
}

func TestCompileTableMultiWord(t *testing.T) {
	// 70 resources: one MRT row spans two words, so uses land in
	// different words and the sparse entries must carry both.
	tab := MustTable(
		ResourceUse{Resource: 0, Time: 0},
		ResourceUse{Resource: 69, Time: 0},
	)
	ca := CompileTable(tab, 2, 70)
	for s := 0; s < 2; s++ {
		cells := maskCells(&ca, s)
		row := s % 2
		if !cells[row*70+0] || !cells[row*70+69] {
			t.Fatalf("rotation %d: cells %v missing expected pair", s, cells)
		}
		if len(ca.Mask(s)) < 2 {
			t.Fatalf("rotation %d: expected entries in two distinct words, got %v", s, ca.Mask(s))
		}
	}
}

// TestCompiledMemoization pins the sharing contract: same fingerprint +
// II yields the same *Compiled, including across clones; a different II
// or a mutated machine does not.
func TestCompiledMemoization(t *testing.T) {
	m := Cydra5()
	c1 := m.Compiled(7)
	if c2 := m.Compiled(7); c2 != c1 {
		t.Error("same (machine, II) did not memoize")
	}
	if c3 := m.Compiled(8); c3 == c1 {
		t.Error("different II shared a compiled table")
	}
	if cc := m.Clone().Compiled(7); cc != c1 {
		t.Error("clone with identical fingerprint did not share the compiled table")
	}
	mut := m.Clone()
	mut.AddResource("extra")
	if cm := mut.Compiled(7); cm == c1 {
		t.Error("mutated clone shared the original's compiled table")
	}
	if cm := mut.Compiled(7); cm.NRes != mut.NumResources() {
		t.Errorf("compiled NRes = %d, want %d", cm.NRes, mut.NumResources())
	}
}

func TestFingerprintDigestInvalidation(t *testing.T) {
	m := Tiny()
	d1 := m.FingerprintDigest()
	if d2 := m.FingerprintDigest(); d2 != d1 {
		t.Error("digest not stable")
	}
	m2 := m.Clone()
	if m2.FingerprintDigest() != d1 {
		t.Error("clone digest differs from original")
	}
	m2.AddResource("extra")
	if m2.FingerprintDigest() == d1 {
		t.Error("AddResource did not invalidate the digest")
	}
}

func TestOpcodeIndex(t *testing.T) {
	m := Tiny()
	ops := m.Opcodes()
	for i, op := range ops {
		if got := m.OpcodeIndex(op.Name); got != i {
			t.Fatalf("OpcodeIndex(%q) = %d, want %d", op.Name, got, i)
		}
	}
	if got := m.OpcodeIndex("no-such-opcode"); got != -1 {
		t.Fatalf("OpcodeIndex(missing) = %d, want -1", got)
	}
}

// TestCompiledLRUSurvivesPressure: one machine's II ladder must stay
// memoized while other machines churn through the cache. The old policy
// cleared the whole map at capacity, recompiling the hot ladder after
// every insertion by a cold machine.
func TestCompiledLRUSurvivesPressure(t *testing.T) {
	hot := Cydra5()
	const ladder = 8
	ptrs := make([]*Compiled, ladder)
	for ii := 1; ii <= ladder; ii++ {
		ptrs[ii-1] = hot.Compiled(ii)
	}
	// Interleave foreign insertions (2x the cache cap in total) with
	// ladder touches, the access pattern of an II search running while a
	// zoo of other machines compiles in the same process.
	for i := 0; i < 2*compiledCacheCap; i++ {
		foreign := New(fmt.Sprintf("pressure%d", i), "R")
		foreign.MustAddOpcode(&Opcode{Name: "x", Latency: 1,
			Alternatives: []Alternative{{Name: "a", Table: SimpleTable(0)}}})
		foreign.Compiled(1 + i%4)
		for ii := 1; ii <= ladder; ii++ {
			if got := hot.Compiled(ii); got != ptrs[ii-1] {
				t.Fatalf("after %d foreign insertions, II=%d was recompiled (pointer changed)", i+1, ii)
			}
		}
	}
}

// TestCompiledCacheBounded: the LRU policy must still enforce the cap.
func TestCompiledCacheBounded(t *testing.T) {
	for i := 0; i < 3*compiledCacheCap; i++ {
		m := New(fmt.Sprintf("bound%d", i), "R")
		m.MustAddOpcode(&Opcode{Name: "x", Latency: 1,
			Alternatives: []Alternative{{Name: "a", Table: SimpleTable(0)}}})
		m.Compiled(2)
	}
	compiledMu.Lock()
	n := len(compiledCache)
	compiledMu.Unlock()
	if n > compiledCacheCap {
		t.Fatalf("compiled cache holds %d entries, cap is %d", n, compiledCacheCap)
	}
}

// zooMachine is a machine with its number of distinct reservation tables
// (distinct Uses sequences over all opcode alternatives).
type zooMachine struct {
	name     string
	m        *Machine
	distinct int
}

// zooMachines returns Cydra5() and the zoo's .mach files.
func zooMachines(t testing.TB) []zooMachine {
	zoo := []zooMachine{{name: "Cydra5()", m: Cydra5(), distinct: 14}}
	for _, z := range []zooMachine{
		{name: "cydra5", distinct: 14},
		{name: "cgra4x4", distinct: 70},
		{name: "superscalar4", distinct: 37},
		{name: "simd64", distinct: 9},
		{name: "single_issue", distinct: 2},
	} {
		m, err := LoadMachineFile("../../testdata/machines/" + z.name + ".mach")
		if err != nil {
			t.Fatal(err)
		}
		z.m = m
		zoo = append(zoo, z)
	}
	return zoo
}

// TestCompiledSharesEqualTables: every (opcode, alternative) family of
// m.Compiled(ii) equals a fresh CompileTable of its table, and
// alternatives with equal tables share one family, so there are exactly
// as many distinct families as distinct tables.
func TestCompiledSharesEqualTables(t *testing.T) {
	for _, z := range zooMachines(t) {
		for _, ii := range []int{1, 2, 7, 64, 65} {
			c := z.m.Compiled(ii)
			nres := z.m.NumResources()
			families := map[*int32]bool{}
			tables := map[string]bool{}
			for i, op := range z.m.Opcodes() {
				for ai, alt := range op.Alternatives {
					got := c.Alts(i)[ai]
					if want := CompileTable(alt.Table, ii, nres); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s II=%d: %s/%s family differs from CompileTable", z.name, ii, op.Name, alt.Name)
					}
					families[&got.Off[0]] = true
					tables[fmt.Sprint(alt.Table.Uses)] = true
				}
			}
			if len(tables) != z.distinct {
				t.Fatalf("%s: %d distinct tables, want %d", z.name, len(tables), z.distinct)
			}
			if len(families) != len(tables) {
				t.Errorf("%s II=%d: %d distinct compiled families for %d distinct tables", z.name, ii, len(families), len(tables))
			}
		}
	}
}

// compiledSink keeps benchmarked compiles live.
var compiledSink *Compiled

// BenchmarkCompileMachine times one uncached compile of every opcode
// alternative's rotation family (the work a memo miss costs).
func BenchmarkCompileMachine(b *testing.B) {
	for _, z := range zooMachines(b)[1:3] { // cydra5.mach, cgra4x4.mach
		for _, ii := range []int{10, 30, 60} {
			b.Run(fmt.Sprintf("%s/II=%d", z.name, ii), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					compiledSink = compileMachine(z.m, ii)
				}
			})
		}
	}
}
