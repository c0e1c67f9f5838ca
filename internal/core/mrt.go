package core

import (
	"fmt"

	"modsched/internal/machine"
)

// mrt is the modulo reservation table (Section 3.1): a schedule
// reservation table of exactly II rows. A reservation of resource R at
// absolute time T is recorded at ((T mod II), R); a conflict at T implies
// conflicts at all T + k*II, so II rows suffice.
type mrt struct {
	ii   int
	nres int
	// owner[(t%ii)*nres + r] is the op occupying the cell, or -1. It is
	// the source of truth: conflicts, displacement victims, and the
	// InvariantViolation checks all read it.
	owner []int
	// occ mirrors owner as a bitset — bit c is set iff owner[c] != -1 —
	// and is the word-wide operand of the compiled placement masks
	// (machine.CompiledAlt): fits against a mask is a handful of ANDs
	// instead of a use-by-use owner scan.
	occ []uint64
	// confBuf backs the allocation-free conflicts; see conflicts.
	confBuf []int
}

func newMRT(ii, nres int) *mrt {
	m := &mrt{}
	m.reset(ii, nres)
	return m
}

// reset re-dimensions the table for a new II attempt, reusing the owner
// and occupancy buffers when they are large enough (the pooled-scratch
// fast path).
func (m *mrt) reset(ii, nres int) {
	m.ii, m.nres = ii, nres
	cells := ii * nres
	if cap(m.owner) < cells {
		m.owner = make([]int, cells)
	} else {
		m.owner = m.owner[:cells]
	}
	for i := range m.owner {
		m.owner[i] = -1
	}
	words := (cells + 63) / 64
	if cap(m.occ) < words {
		m.occ = make([]uint64, words)
	} else {
		m.occ = m.occ[:words]
	}
	for i := range m.occ {
		m.occ[i] = 0
	}
}

// cell maps an arbitrary (possibly negative) time to its modulo cell.
// Probing paths that may see any time — conflicts, tests — use this
// wrapping version; the scheduler's placement paths use cellFast below.
func (m *mrt) cell(t int, r machine.Resource) int {
	tm := t % m.ii
	if tm < 0 {
		tm += m.ii
	}
	return tm*m.nres + int(r)
}

// mrtDebug gates the cellFast precondition assertion. It is a constant
// so the branch vanishes from production builds; flip it when chasing an
// MRT corruption.
const mrtDebug = false

// cellFast is cell with the negative-time branch hoisted out: scheduler
// times are non-negative on the hot path (Estart starts at 0 and table
// uses have non-negative offsets), so fits/place/remove skip the wrap.
func (m *mrt) cellFast(t int, r machine.Resource) int {
	if mrtDebug && t < 0 {
		panic(InvariantViolation(fmt.Sprintf("core: negative time %d on the MRT fast path", t)))
	}
	return (t%m.ii)*m.nres + int(r)
}

// fits reports whether the reservation table placed at time t (t >= 0)
// collides with any existing reservation (including a self-collision,
// where two uses of the table land on the same cell — impossible to
// place at this II regardless of occupancy). This is the reference scan;
// the scheduler's bitset path answers the same question via fitsMask.
func (m *mrt) fits(t int, tab machine.ReservationTable) bool {
	for i, u := range tab.Uses {
		c := m.cellFast(t+u.Time, u.Resource)
		if m.owner[c] != -1 {
			return false
		}
		// Self-collision check against earlier uses of the same table.
		for j := 0; j < i; j++ {
			v := tab.Uses[j]
			if v.Resource == u.Resource && m.cellFast(t+v.Time, u.Resource) == c {
				return false
			}
		}
	}
	return true
}

// fitsMask is fits against a precompiled placement mask: row is the
// start row (issue time mod II) and ca the alternative's rotation family
// compiled at this table's II (machine.CompileTable). Self-colliding
// tables were marked impossible at compile time.
func (m *mrt) fitsMask(row int, ca *machine.CompiledAlt) bool {
	if !ca.SelfOK {
		return false
	}
	for _, e := range ca.Entries[ca.Off[row]:ca.Off[row+1]] {
		if m.occ[e.Word]&e.Bits != 0 {
			return false
		}
	}
	return true
}

// selfConsistent reports whether the table can ever be placed at this II:
// no two of its own uses of the same resource may fall on the same modulo
// cell. The scheduler answers this from the compiled family (SelfOK) or
// a per-attempt memo (altSelfConsistent); this scan is the reference.
func (m *mrt) selfConsistent(tab machine.ReservationTable) bool {
	for i, u := range tab.Uses {
		for j := 0; j < i; j++ {
			v := tab.Uses[j]
			if v.Resource == u.Resource && (u.Time-v.Time)%m.ii == 0 {
				return false
			}
		}
	}
	return true
}

// conflicts returns the distinct ops whose reservations collide with tab
// placed at t, in first-collision order. The duplicate filter is a
// linear scan of the result (victim counts are tiny — a handful at
// most), and the result aliases an internal buffer that is reused by the
// next call, so steady-state calls are allocation-free. This version
// backs tests and states without a scratch; the scheduler's hot path
// uses state.conflictVictims.
func (m *mrt) conflicts(t int, tab machine.ReservationTable) []int {
	out := m.confBuf[:0]
	for _, u := range tab.Uses {
		o := m.owner[m.cell(t+u.Time, u.Resource)]
		if o == -1 {
			continue
		}
		dup := false
		for _, x := range out {
			if x == o {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, o)
		}
	}
	m.confBuf = out
	return out
}

// place records op's reservations; it must only be called when fits
// returned true (so t >= 0). A double placement means the scheduling
// state is corrupted: the typed panic is recovered into an
// *InternalError at the API boundary (see runAttempt and
// RecoverToInternal) rather than being allowed to crash the caller.
func (m *mrt) place(op, t int, tab machine.ReservationTable) {
	for _, u := range tab.Uses {
		c := m.cellFast(t+u.Time, u.Resource)
		if m.owner[c] != -1 {
			panic(InvariantViolation(fmt.Sprintf(
				"core: MRT place over occupied cell: op %d at t=%d (resource %d, cell held by op %d, II=%d)",
				op, t, u.Resource, m.owner[c], m.ii)))
		}
		m.owner[c] = op
		m.occ[c>>6] |= 1 << uint(c&63)
	}
}

// remove erases op's reservations (the reverse translation of place).
// Removing a reservation the op does not hold is the same class of
// corruption as a double place, and is contained the same way.
func (m *mrt) remove(op, t int, tab machine.ReservationTable) {
	for _, u := range tab.Uses {
		c := m.cellFast(t+u.Time, u.Resource)
		if m.owner[c] != op {
			panic(InvariantViolation(fmt.Sprintf(
				"core: MRT remove of foreign reservation: op %d at t=%d (resource %d, cell held by op %d, II=%d)",
				op, t, u.Resource, m.owner[c], m.ii)))
		}
		m.owner[c] = -1
		m.occ[c>>6] &^= 1 << uint(c&63)
	}
}
