// Package regalloc allocates registers for modulo-scheduled kernels.
//
// For machines with rotating register files it implements a
// lifetime-accurate cylinder packing in the spirit of Rau, Lee, Tirumalai
// and Schlansker, "Register allocation for software pipelined loops": each
// loop-variant EVR is a *wand* that writes one new physical register per
// kernel pass (the file base decrements every pass), its instances stay
// live for a fixed number of passes, and — crucially — its *live-in*
// instances (values preloaded before the loop and read during the fill
// phase by late-stage consumers) are live from loop entry, far longer than
// the steady-state lifetime. Wands are placed on the cyclic file greedily,
// longest-lifetime first, each at the first base that provably never
// collides with an already-placed wand; the file grows until everything
// fits.
//
// The first fit is a forbidden-interval search. Whether wand a at base b
// collides with a placed wand p at base bp depends only on bp - b mod the
// file size, and each kind of instance pair (steady with steady, a
// virtual with the other wand's steady stream, virtual with virtual)
// rules out one interval of that difference; a wand's virtuals, grouped
// into runs of consecutive passes, rule out one interval per pair of
// runs. Each placed wand marks its intervals in a bitset over the bases,
// a word at a time, and the wand goes at the first clear bit: the base a
// base-by-base scan would pick, without testing each base against each
// placed wand. Verify replays the allocation pass by pass as an
// independent check.
//
// Invariants (loop-invariant registers) stay in the static file with
// identity assignment and are not handled here.
package regalloc

import (
	"fmt"
	"math/bits"
	"sort"

	"modsched/internal/ir"
)

// Virtual describes one live-in instance of a wand: the value the EVR held
// before loop entry that some reader consumes during the fill phase.
type Virtual struct {
	// V is the virtual write pass (always < Stage; may be negative): the
	// pass at which the instance "would have been" produced.
	V int
	// LastRead is the last pass at which the instance is read. The
	// instance is live on [0, LastRead] because it is preloaded before the
	// first pass.
	LastRead int
}

// Wand is the allocation request for one loop-variant register.
type Wand struct {
	Reg ir.Reg
	// Stage is the kernel stage of the defining operation: its first
	// actual write happens in pass Stage.
	Stage int
	// Life is the maximum read offset: the instance written in pass w is
	// live on [w, w+Life].
	Life int
	// Virtuals lists the live-in instances in strictly increasing V order
	// (one per V, worst-case LastRead).
	Virtuals []Virtual
}

// Rotating is a rotating-register-file allocation.
type Rotating struct {
	// Base maps each loop-variant register to its wand base offset.
	Base map[ir.Reg]int
	// Size is the rotating file size.
	Size int
	// wands holds the accepted requests in packing order for Verify.
	wands []Wand
}

// AllocateRotating packs the wands onto the smallest cyclic file the
// greedy search finds. It returns an error only for malformed requests;
// packing itself always succeeds by growing the file.
func AllocateRotating(wands []Wand) (*Rotating, error) {
	sorted, size, err := prepare(wands)
	if err != nil {
		return nil, err
	}
	p := newPacker(sorted)
	for ; ; size++ {
		if bases, ok := p.pack(size); ok {
			a := &Rotating{Base: make(map[ir.Reg]int, len(sorted)), Size: size, wands: sorted}
			for i, w := range sorted {
				a.Base[w.Reg] = bases[i]
			}
			return a, nil
		}
	}
}

// prepare validates the requests and returns them in packing order —
// longest span first, then by register — together with the first file
// size worth trying.
func prepare(wands []Wand) ([]Wand, int, error) {
	sumLen := 0
	maxLife := 0
	sorted := make([]Wand, len(wands))
	for i, w := range wands {
		if w.Life < 0 || w.Stage < 0 {
			return nil, 0, fmt.Errorf("regalloc: wand r%d has negative life/stage", w.Reg)
		}
		for k, v := range w.Virtuals {
			if v.V >= w.Stage {
				return nil, 0, fmt.Errorf("regalloc: wand r%d virtual at pass %d not before stage %d", w.Reg, v.V, w.Stage)
			}
			if k > 0 && v.V <= w.Virtuals[k-1].V {
				return nil, 0, fmt.Errorf("regalloc: wand r%d virtual at pass %d out of order", w.Reg, v.V)
			}
		}
		sumLen += w.Life + 1
		if w.Life+1 > maxLife {
			maxLife = w.Life + 1
		}
		sorted[i] = w
	}
	sort.Slice(sorted, func(i, j int) bool {
		li, lj := sorted[i].maxSpan(), sorted[j].maxSpan()
		if li != lj {
			return li > lj
		}
		return sorted[i].Reg < sorted[j].Reg
	})
	size := sumLen
	if size < maxLife+1 {
		size = maxLife + 1
	}
	if size < 1 {
		size = 1
	}
	return sorted, size, nil
}

// maxSpan is the longest lifetime any instance of the wand has, in passes.
func (w Wand) maxSpan() int {
	span := w.Life + 1
	for _, v := range w.Virtuals {
		if s := v.LastRead + 1; s > span {
			span = s
		}
	}
	return span
}

// selfConflict reports whether a wand's own instances collide at this file
// size: instance w and w+size share a cell, so every lifetime (steady and
// virtual-to-first-steady) must be shorter than size, and no two virtuals
// (all live from pass 0) may share a cell.
func selfConflict(w Wand, size int) bool {
	if w.Life >= size {
		return true
	}
	for _, v := range w.Virtuals {
		// The first steady write to the virtual's cell is at pass v+size
		// (pass v itself is predicated off). The virtual must be dead by
		// then — and, symmetrically, earlier steady instances of the same
		// cell do not exist before pass Stage.
		if v.LastRead >= v.V+size {
			return true
		}
	}
	if n := len(w.Virtuals); n > 1 && w.Virtuals[n-1].V-w.Virtuals[0].V >= size {
		cells := make([]bool, size)
		for _, v := range w.Virtuals {
			c := mod(v.V, size)
			if cells[c] {
				return true
			}
			cells[c] = true
		}
	}
	return false
}

// vrun is a maximal run lo, lo+1, ..., hi of a wand's virtual write
// passes.
type vrun struct{ lo, hi int }

// packer places wands by forbidden-interval first fit. Wand a at base b
// collides with placed wand p at base bp exactly when b falls in one of a
// few intervals (mod size) around bp, one per kind of instance pair, so
// instead of testing every base against every placed wand it marks those
// intervals in a bitset and takes the first clear bit: the same base a
// base-by-base scan would pick.
type packer struct {
	wands []Wand
	runs  [][]vrun // runs[i] groups wands[i].Virtuals into maximal runs
	f     forbidden
}

func newPacker(wands []Wand) *packer {
	p := &packer{wands: wands, runs: make([][]vrun, len(wands))}
	for i, w := range wands {
		for _, v := range w.Virtuals {
			if r := p.runs[i]; len(r) > 0 && r[len(r)-1].hi+1 == v.V {
				r[len(r)-1].hi = v.V
			} else {
				p.runs[i] = append(r, vrun{v.V, v.V})
			}
		}
	}
	return p
}

// pack places each wand, in order, at the first base with no conflict,
// and reports false if some wand fits nowhere in a file of this size.
func (p *packer) pack(size int) ([]int, bool) {
	for _, w := range p.wands {
		if selfConflict(w, size) {
			return nil, false
		}
	}
	bases := make([]int, len(p.wands))
	f := &p.f
	for i, a := range p.wands {
		f.reset(size)
		for j := 0; j < i && !f.full; j++ {
			f.markConflicts(a, p.runs[i], p.wands[j], p.runs[j], bases[j])
		}
		b := f.first()
		if b < 0 {
			return nil, false
		}
		bases[i] = b
	}
	return bases, true
}

// markConflicts marks every base b at which wand a would collide with
// wand p placed at bp. Instance w of a wand occupies cell (base - w) mod
// size; steady instances (w >= Stage, one per pass, unbounded trip count)
// are live on [w, w+Life]; virtual instances are live on [0, LastRead].
// So a's instance wa and p's instance wp share a cell exactly when
// wp - wa == bp - b (mod size), and each term below is the set of
// residues bp - b that some live-overlapping pair realizes.
func (f *forbidden) markConflicts(a Wand, aruns []vrun, p Wand, pruns []vrun, bp int) {
	// steady(a) vs steady(p): both streams are unbounded above, so they
	// collide iff wp - wa lies in [-Life(p), Life(a)] for some pair.
	f.mark(bp-a.Life, bp+p.Life)
	// virtual(a) vs steady(p): the virtual at pass v is hit by p's writes
	// at passes wp == v + bp - b, which conflict when some such
	// wp >= Stage(p) lands at or before the virtual's last read.
	for _, v := range a.Virtuals {
		if v.LastRead >= p.Stage {
			f.mark(bp+v.V-v.LastRead, bp+v.V-p.Stage)
		}
	}
	// virtual(p) vs steady(a): symmetric, wa == u - bp + b.
	for _, u := range p.Virtuals {
		if u.LastRead >= a.Stage {
			f.mark(bp-u.V+a.Stage, bp-u.V+u.LastRead)
		}
	}
	// virtual vs virtual: both live from pass 0, so sharing a cell at all
	// is a conflict: vp - va == bp - b. A pair of runs covers every
	// difference between its ends.
	for _, ra := range aruns {
		for _, rp := range pruns {
			f.mark(bp+ra.lo-rp.hi, bp+ra.hi-rp.lo)
		}
	}
}

// forbidden is a bitset of forbidden bases over [0, size). Intervals are
// marked in absolute coordinates and reduced mod size; consecutive
// overlapping or adjacent intervals coalesce before they are written, so
// a long run of virtuals costs one word-at-a-time fill, not one per
// virtual.
type forbidden struct {
	words []uint64
	size  int
	// full is set once some interval covers every residue.
	full bool
	// lo, hi is the pending (not yet written) interval, if open.
	lo, hi int
	open   bool
}

func (f *forbidden) reset(size int) {
	n := (size + 63) / 64
	if cap(f.words) < n {
		f.words = make([]uint64, n)
	} else {
		f.words = f.words[:n]
		clear(f.words)
	}
	f.size, f.full, f.open = size, false, false
}

// mark forbids the bases lo..hi (mod size), lo <= hi.
func (f *forbidden) mark(lo, hi int) {
	if f.open && lo <= f.hi+1 && hi >= f.lo-1 {
		f.lo, f.hi = min(f.lo, lo), max(f.hi, hi)
		return
	}
	f.flush()
	f.lo, f.hi, f.open = lo, hi, true
}

// flush writes the pending interval into the bitset.
func (f *forbidden) flush() {
	if !f.open {
		return
	}
	f.open = false
	if f.hi-f.lo+1 >= f.size {
		f.full = true
		return
	}
	lo := mod(f.lo, f.size)
	hi := lo + f.hi - f.lo
	if hi < f.size {
		f.set(lo, hi)
		return
	}
	f.set(lo, f.size-1)
	f.set(0, hi-f.size)
}

// set sets bits lo..hi, 0 <= lo <= hi < size, a word at a time.
func (f *forbidden) set(lo, hi int) {
	wl, wh := lo>>6, hi>>6
	ml := ^uint64(0) << (lo & 63)
	mh := ^uint64(0) >> (63 - hi&63)
	if wl == wh {
		f.words[wl] |= ml & mh
		return
	}
	f.words[wl] |= ml
	for w := wl + 1; w < wh; w++ {
		f.words[w] = ^uint64(0)
	}
	f.words[wh] |= mh
}

// first returns the lowest base not forbidden, or -1 if there is none.
func (f *forbidden) first() int {
	f.flush()
	if f.full {
		return -1
	}
	for i, w := range f.words {
		if w != ^uint64(0) {
			if b := i*64 + bits.TrailingZeros64(^w); b < f.size {
				return b
			}
			return -1
		}
	}
	return -1
}

func mod(x, m int) int {
	r := x % m
	if r < 0 {
		r += m
	}
	return r
}

// Phys returns the physical register of reg's instance written in kernel
// pass writePass (negative for virtual instances), with RRB(0) = 0.
func (a *Rotating) Phys(reg ir.Reg, writePass int) int {
	base, ok := a.Base[reg]
	if !ok {
		panic(fmt.Sprintf("regalloc: r%d is not rotating-allocated", reg))
	}
	return mod(base-writePass, a.Size)
}

// Verify exhaustively replays the write/read schedule over enough passes
// to cover the fill phase plus two full rotations and reports the first
// cell that is overwritten while live. It is the independent check
// backing the analytical conflict test. Wands are replayed in packing
// order, so the report is the same on every call.
func (a *Rotating) Verify() error {
	horizon := 2*a.Size + 4
	end := 0
	for _, w := range a.wands {
		end = max(end, w.Stage+w.Life+1)
	}
	if end > horizon {
		horizon = end + 2*a.Size
	}
	// Read each base once; the replay itself indexes by wand position.
	type stream struct{ base, stage, life int }
	streams := make([]stream, len(a.wands))
	for i, w := range a.wands {
		b, ok := a.Base[w.Reg]
		if !ok {
			return fmt.Errorf("regalloc verify: r%d has no base", w.Reg)
		}
		streams[i] = stream{base: mod(b, a.Size), stage: w.Stage, life: w.Life}
	}
	type occupant struct {
		wand int // index into a.wands, -1 if never written
		till int // live through this pass
	}
	cells := make([]occupant, a.Size)
	for i := range cells {
		cells[i] = occupant{wand: -1, till: -1}
	}
	// Preload virtuals (live from pass 0).
	for i, w := range a.wands {
		for _, v := range w.Virtuals {
			c := mod(streams[i].base-v.V, a.Size)
			if o := cells[c]; o.wand >= 0 {
				return fmt.Errorf("regalloc verify: preload collision at cell %d between r%d and r%d", c, a.wands[o.wand].Reg, w.Reg)
			}
			cells[c] = occupant{wand: i, till: v.LastRead}
		}
	}
	for pass := 0; pass < horizon; pass++ {
		r := pass % a.Size
		for i, s := range streams {
			if pass < s.stage {
				continue
			}
			c := s.base - r
			if c < 0 {
				c += a.Size
			}
			if o := cells[c]; o.till >= pass {
				return fmt.Errorf("regalloc verify: pass %d: r%d overwrites cell %d still live for r%d (till %d)",
					pass, a.wands[i].Reg, c, a.wands[o.wand].Reg, o.till)
			}
			cells[c] = occupant{wand: i, till: pass + s.life}
		}
	}
	return nil
}
