package machine

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
)

// Compiled reservation tables.
//
// The modulo reservation table folds a reservation of resource R at
// absolute time T onto cell ((T mod II), R); for a fixed II, the set of
// cells a reservation table occupies when issued at time T depends only
// on T mod II. That makes a table's modulo footprint a *rotation family*:
// II precomputed occupancy masks over the II×nres cell grid (row-major
// bitset, one mask per start row T mod II). The scheduler's inner
// question — "does this alternative collide with the current partial
// schedule at time T?" — then collapses from a use-by-use scan with a
// `%` per cell into a handful of 64-bit AND tests against an occupancy
// bitset maintained alongside the MRT.
//
// Masks are stored sparsely (only the nonzero words), so testing one
// placement costs at most len(Uses) word ANDs and usually one. Families
// are immutable once built and memoized per (machine fingerprint
// digest, II), so they are shared across operations, II attempts,
// speculative-search workers, scratch pools, and even machine *clones*
// (Clone preserves the fingerprint).

// MaskEntry is one nonzero 64-bit word of a placement mask: Bits holds
// the occupied cells whose linear index c (= row*nres + resource) falls
// in word Word, i.e. bit (c & 63) of word (c >> 6).
type MaskEntry struct {
	Word int32
	Bits uint64
}

// CompiledAlt is the modulo-folded footprint of one reservation table at
// one II: a rotation family of sparse bit masks over the II×nres grid.
type CompiledAlt struct {
	// SelfOK is false when the table self-collides at this II (two of
	// its own uses of one resource congruent mod II) — the table can
	// never be placed, at any start time, regardless of occupancy.
	// Self-collision is rotation-independent, so one bit covers the
	// whole family.
	SelfOK bool
	// Off[s] .. Off[s+1] bound start row s's mask entries in Entries,
	// for s in [0, II). Entries within a rotation are sorted by Word.
	Off     []int32
	Entries []MaskEntry
}

// Mask returns the sparse mask of start row s (s = issue time mod II).
func (ca *CompiledAlt) Mask(s int) []MaskEntry {
	return ca.Entries[ca.Off[s]:ca.Off[s+1]]
}

// CompileTable folds tab at ii over a machine with nres resources into
// its rotation family. ii must be >= 1; uses must reference resources
// below nres (guaranteed for tables registered via AddOpcode).
func CompileTable(tab ReservationTable, ii, nres int) CompiledAlt {
	if ii < 1 {
		panic(fmt.Sprintf("machine: CompileTable at II=%d < 1", ii))
	}
	ca := CompiledAlt{SelfOK: true, Off: make([]int32, ii+1)}
	if len(tab.Uses) == 0 {
		return ca // pseudo-op: every rotation is the empty mask
	}
	words := (ii*nres + 63) / 64
	scratch := make([]uint64, words)
	touched := make([]int32, 0, len(tab.Uses))
	ca.Entries = make([]MaskEntry, 0, ii*len(tab.Uses))
	for s := 0; s < ii; s++ {
		ca.Off[s] = int32(len(ca.Entries))
		touched = touched[:0]
		for _, u := range tab.Uses {
			row := (s + u.Time) % ii
			cell := row*nres + int(u.Resource)
			w, b := int32(cell>>6), uint(cell&63)
			if scratch[w]&(1<<b) != 0 {
				// Two uses on one cell: same resource, times congruent
				// mod ii — exactly the mrt.selfConsistent predicate.
				ca.SelfOK = false
			}
			if scratch[w] == 0 {
				touched = append(touched, w)
			}
			scratch[w] |= 1 << b
		}
		slices.Sort(touched)
		for _, w := range touched {
			ca.Entries = append(ca.Entries, MaskEntry{Word: w, Bits: scratch[w]})
			scratch[w] = 0
		}
	}
	ca.Off[ii] = int32(len(ca.Entries))
	return ca
}

// Compiled holds every opcode alternative's rotation family for one
// (machine, II) pair. Values are immutable and safe for concurrent use.
type Compiled struct {
	II    int
	NRes  int
	Words int // words per full mask: ceil(II*NRes / 64)
	// alts is indexed by opcode registration order (Machine.OpcodeIndex),
	// then by alternative index.
	alts [][]CompiledAlt
}

// Alts returns the rotation families of the opcode with registration
// index opIdx, one per alternative.
func (c *Compiled) Alts(opIdx int) []CompiledAlt { return c.alts[opIdx] }

// compiledKey identifies one memoized Compiled: machines are equal for
// scheduling purposes iff their fingerprints are (see Fingerprint), so
// the digest — not the pointer — is the machine half of the key.
type compiledKey struct {
	fp [sha256.Size]byte
	ii int
}

// compiledEntry is one memoized Compiled with its recency stamp.
type compiledEntry struct {
	c       *Compiled
	lastUse uint64
}

var (
	compiledMu    sync.Mutex
	compiledCache = make(map[compiledKey]*compiledEntry)
	compiledClock uint64 // monotone use counter, advanced under compiledMu
)

// compiledCacheCap bounds the global memo so pathological II ladders
// cannot pin memory. It is smaller than the working set of the common
// runs: one pass over the 1327-loop Cydra 5 corpus touches 119
// (machine, II) keys, and one pass of the bench's schedule-large workload
// touches 135 keys over 2114 II attempts and compiles them about 194
// times, because keys are evicted before they come back. At capacity the
// least-recently-used entry is evicted — never the whole map: with a zoo
// of machines × an II range in one process, dropping everything would
// wipe the hot machine's whole II ladder mid-search and recompile it per
// insertion.
const compiledCacheCap = 64

// Compiled returns the compiled placement masks for m at ii, memoized
// globally per (fingerprint digest, II). Concurrent callers may compile
// the same key twice; the first stored value wins and the results are
// identical by construction.
func (m *Machine) Compiled(ii int) *Compiled {
	key := compiledKey{m.FingerprintDigest(), ii}
	compiledMu.Lock()
	if e := compiledCache[key]; e != nil {
		compiledClock++
		e.lastUse = compiledClock
		c := e.c
		compiledMu.Unlock()
		return c
	}
	compiledMu.Unlock()
	c := compileMachine(m, ii)
	compiledMu.Lock()
	if prev, ok := compiledCache[key]; ok {
		compiledClock++
		prev.lastUse = compiledClock
		c = prev.c
	} else {
		for len(compiledCache) >= compiledCacheCap {
			evictOldestCompiled()
		}
		compiledClock++
		compiledCache[key] = &compiledEntry{c: c, lastUse: compiledClock}
	}
	compiledMu.Unlock()
	return c
}

// evictOldestCompiled removes the least-recently-used entry. Caller
// holds compiledMu. The linear scan is fine at this cap size.
func evictOldestCompiled() {
	var victim compiledKey
	oldest := uint64(0)
	first := true
	for k, e := range compiledCache {
		if first || e.lastUse < oldest {
			victim, oldest, first = k, e.lastUse, false
		}
	}
	if !first {
		delete(compiledCache, victim)
	}
}

// compileMachine folds every opcode alternative at ii. Alternatives whose
// reservation tables are equal use for use (machlang builds a separate
// Uses slice per alternative, so equal content, not the slice pointer, is
// the key) compile once and share one family's backing arrays.
func compileMachine(m *Machine, ii int) *Compiled {
	nres := len(m.Resources)
	c := &Compiled{II: ii, NRes: nres, Words: (ii*nres + 63) / 64}
	ops := m.Opcodes()
	c.alts = make([][]CompiledAlt, len(ops))
	byTable := make(map[string]CompiledAlt)
	var key []byte
	for i, op := range ops {
		fams := make([]CompiledAlt, len(op.Alternatives))
		for ai, alt := range op.Alternatives {
			key = key[:0]
			for _, u := range alt.Table.Uses {
				key = binary.AppendVarint(key, int64(u.Resource))
				key = binary.AppendVarint(key, int64(u.Time))
			}
			ca, ok := byTable[string(key)]
			if !ok {
				ca = CompileTable(alt.Table, ii, nres)
				byTable[string(key)] = ca
			}
			fams[ai] = ca
		}
		c.alts[i] = fams
	}
	return c
}
