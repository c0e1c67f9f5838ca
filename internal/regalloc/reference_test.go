package regalloc

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"modsched/internal/ir"
)

// referenceAllocate is the base-by-base first-fit packer the interval
// search replaced: same request order, same size ladder, and every base
// tested against every placed wand with the pairwise conflict predicate.
// The interval search must agree with it exactly.
func referenceAllocate(wands []Wand) (*Rotating, error) {
	sorted, size, err := prepare(wands)
	if err != nil {
		return nil, err
	}
	for ; ; size++ {
		if bases, ok := referenceTryPack(sorted, size); ok {
			a := &Rotating{Base: make(map[ir.Reg]int, len(sorted)), Size: size, wands: sorted}
			for i, w := range sorted {
				a.Base[w.Reg] = bases[i]
			}
			return a, nil
		}
	}
}

// referenceTryPack places each wand at the first base with no conflict.
func referenceTryPack(wands []Wand, size int) ([]int, bool) {
	bases := make([]int, len(wands))
	for i, w := range wands {
		found := -1
		for b := 0; b < size; b++ {
			ok := true
			for j := 0; j < i; j++ {
				if wandsConflict(w, b, wands[j], bases[j], size) {
					ok = false
					break
				}
			}
			if ok && !selfConflict(w, size) {
				found = b
				break
			}
		}
		if found < 0 {
			return nil, false
		}
		bases[i] = found
	}
	return bases, true
}

// wandsConflict reports whether wand a at base ba and wand b at base bb
// can ever have two live instances in the same physical register of a file
// with the given size. Instance w of a wand occupies cell (base - w) mod
// size; steady instances (w >= Stage, one per pass, unbounded trip count)
// are live on [w, w+Life]; virtual instances are live on [0, LastRead].
func wandsConflict(a Wand, ba int, b Wand, bb int, size int) bool {
	// Cells collide when ba - wa == bb - wb (mod size), i.e. when
	// wb = wa + delta (mod size) with delta = bb - ba.
	delta := bb - ba

	// steady(a) vs steady(b): instances wa and wb = wa + delta + k*size
	// overlap iff wb - wa is within [-Life(b), Life(a)]; both streams are
	// unbounded above, so any residue is realizable.
	for k := -2; k <= 2; k++ {
		d := delta + k*size
		if d >= -b.Life && d <= a.Life {
			return true
		}
	}
	// virtual(a) vs steady(b): the virtual instance v occupies cell
	// (ba - v) from pass 0; b writes that cell at passes
	// wb = v + delta + k*size, gated at wb >= b.Stage; conflict iff the
	// first such write lands at or before the virtual's last read.
	if virtualVsSteady(a.Virtuals, delta, b.Stage, size) {
		return true
	}
	// virtual(b) vs steady(a): symmetric, wa = v - delta + k*size.
	if virtualVsSteady(b.Virtuals, -delta, a.Stage, size) {
		return true
	}
	// virtual vs virtual: both live from pass 0, so sharing a cell at all
	// is a conflict: ba - va == bb - vb, i.e. vb == va + delta (mod size).
	for _, va := range a.Virtuals {
		for _, vb := range b.Virtuals {
			if mod(va.V+delta-vb.V, size) == 0 {
				return true
			}
		}
	}
	return false
}

// virtualVsSteady checks virtual instances (live on [0, LastRead], at
// cells ownBase - v) against another wand's steady write stream, which
// hits those cells at passes w = v + delta + k*size, w >= otherStage.
func virtualVsSteady(virtuals []Virtual, delta, otherStage, size int) bool {
	for _, v := range virtuals {
		w := v.V + delta
		for w < otherStage {
			w += size
		}
		for w-size >= otherStage {
			w -= size
		}
		// w is the first write pass >= otherStage hitting the cell.
		if w <= v.LastRead {
			return true
		}
	}
	return false
}

// decodeWands turns arbitrary bytes into a small well-formed wand set
// (reading zeros once the bytes run out). Virtuals come as gapped runs,
// possibly at negative V, with last reads that may fall before either
// wand's stage.
func decodeWands(data []byte) []Wand {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	wands := make([]Wand, 1+next()%7)
	for i := range wands {
		w := Wand{Reg: ir.Reg(i + 1), Stage: next() % 9, Life: next() % 7}
		if k := next() % 6; k > 0 {
			for v := w.Stage - 1 - next()%3; k > 0; k-- {
				w.Virtuals = append(w.Virtuals, Virtual{V: v, LastRead: v + next()%(w.Stage-v+4)})
				v -= 1 + next()%3 // a gap of 0-2 passes
			}
			slices.Reverse(w.Virtuals)
		}
		wands[i] = w
	}
	return wands
}

// checkAgainstReference allocates with both packers and fails unless they
// pick the same bases and size and the result passes the replay.
func checkAgainstReference(t *testing.T, wands []Wand) {
	t.Helper()
	got, err := AllocateRotating(wands)
	if err != nil {
		t.Fatalf("%+v: %v", wands, err)
	}
	want, err := referenceAllocate(wands)
	if err != nil {
		t.Fatalf("%+v: reference: %v", wands, err)
	}
	if got.Size != want.Size || !reflect.DeepEqual(got.Base, want.Base) {
		t.Fatalf("%+v:\ninterval search: size %d bases %v\nreference scan:  size %d bases %v",
			wands, got.Size, got.Base, want.Size, want.Base)
	}
	if err := got.Verify(); err != nil {
		t.Fatalf("%+v: %v", wands, err)
	}
}

// selfCollisionBytes decodes to two wands, the second with virtuals at
// V = 0 and V = 2: a file of size 2 puts both in one cell.
var selfCollisionBytes = []byte{1, 5, 0, 0, 3, 0, 2, 0, 1, 1, 0, 0}

func TestVirtualsSharingACellGrowTheFile(t *testing.T) {
	wands := decodeWands(selfCollisionBytes)
	want := []Wand{
		{Reg: 1, Stage: 5, Life: 0},
		{Reg: 2, Stage: 3, Life: 0, Virtuals: []Virtual{{V: 0, LastRead: 0}, {V: 2, LastRead: 3}}},
	}
	if !reflect.DeepEqual(wands, want) {
		t.Fatalf("decoded %+v, want %+v", wands, want)
	}
	a, err := AllocateRotating(wands)
	if err != nil {
		t.Fatal(err)
	}
	if a.Size == 2 {
		t.Errorf("size 2 accepted, but it maps V=0 and V=2 to one cell")
	}
	if err := a.Verify(); err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, wands)
}

func TestMatchesReferenceScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 64)
	for i := 0; i < 5000; i++ {
		rng.Read(data)
		checkAgainstReference(t, decodeWands(data))
	}
}

// FuzzAllocateRotating checks the interval search against the reference
// scan, and the result against the replay, on fuzzer-built wand sets.
func FuzzAllocateRotating(f *testing.F) {
	f.Add([]byte{})
	f.Add(selfCollisionBytes)
	f.Add([]byte{6, 8, 6, 5, 2, 200, 2, 100, 7, 3, 4, 0, 0, 5, 1, 1, 1, 1, 8, 0, 5, 0, 0, 9, 9, 9, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstReference(t, decodeWands(data))
	})
}
