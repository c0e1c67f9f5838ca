package core

import (
	"sync"

	"modsched/internal/machine"
	"modsched/internal/mii"
)

// scratch is the reusable working set of one scheduling call. Every II
// attempt of the Figure 2 search rebuilds the same-shape state (times,
// alternatives, MRT, priorities), and every loop of a corpus rebuilds it
// again; holding the buffers here turns those rebuilds into O(n) fills
// with no allocator traffic. Scratches are pooled: concurrent scheduling
// calls (the parallel experiment harness) each take their own, so there
// is no sharing and no locking on the hot path.
type scratch struct {
	st state
	// h is the HeightR output buffer (doubles as the priority vector).
	h []int
	// conflictBuf/conflictSeen implement the allocation-free duplicate
	// filter of conflictVictims: seen[op] == epoch marks op as already
	// collected in the current scan. The epoch is bumped per scan so the
	// array never needs clearing; entries start at 0 and epochs at 1.
	conflictBuf   []int
	conflictSeen  []int
	conflictEpoch int
	// mii holds the MinDist matrix buffers shared by the MII bounds
	// computation and the slack scheduler's per-attempt closure.
	mii mii.Scratch
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch   { return scratchPool.Get().(*scratch) }
func putScratch(sc *scratch) { scratchPool.Put(sc) }

// resetInts returns buf resized to n with every element set to v,
// reusing the backing array when it is large enough.
func resetInts(buf []int, n, v int) []int {
	if cap(buf) < n {
		buf = make([]int, n)
	} else {
		buf = buf[:n]
	}
	for i := range buf {
		buf[i] = v
	}
	return buf
}

// resetInt8s is resetInts for []int8 (the selfConsistent memo).
func resetInt8s(buf []int8, n int, v int8) []int8 {
	if cap(buf) < n {
		buf = make([]int8, n)
	} else {
		buf = buf[:n]
	}
	for i := range buf {
		buf[i] = v
	}
	return buf
}

// resetBools is resetInts for []bool.
func resetBools(buf []bool, n int, v bool) []bool {
	if cap(buf) < n {
		buf = make([]bool, n)
	} else {
		buf = buf[:n]
	}
	for i := range buf {
		buf[i] = v
	}
	return buf
}

// newState prepares the scratch's state for one II attempt. The returned
// *state aliases the scratch and is valid until the next newState call.
func (sc *scratch) newState(p *problem, ii int) *state {
	s := &sc.st
	n := p.loop.NumOps()
	s.p = p
	s.ii = ii
	s.times = resetInts(s.times, n, -1)
	s.alts = resetInts(s.alts, n, -1)
	s.prev = resetInts(s.prev, n, -1)
	s.never = resetBools(s.never, n, true)
	s.prio = nil // assigned by the priority selection
	if s.mrt == nil {
		s.mrt = &mrt{}
	}
	s.mrt.reset(ii, p.mach.NumResources())
	p.opcodeOrder() // II-independent, built on the first attempt
	if p.opts.scanMRT {
		s.comp = nil
		s.selfOK = resetInt8s(s.selfOK, int(p.altOff[n]), 0)
	} else {
		s.comp = p.mach.Compiled(ii)
		s.selfOK = s.selfOK[:0]
	}
	s.ready = s.ready[:0]
	s.heapLive = false
	s.unscheduled = n
	s.forceEarly = false
	if cap(sc.conflictSeen) < n {
		sc.conflictSeen = make([]int, n)
		sc.conflictEpoch = 0
	}
	return s
}

// conflictVictims returns the distinct ops whose MRT reservations collide
// with tab placed at slot. It replaces the old mrt.conflicts, which
// allocated a result slice and a seen-map per call — one pair per
// scheduling step and per forced-placement alternative, the single
// largest allocation source of the scheduler's inner loop. The returned
// slice aliases the scratch and is valid until the next call.
func (s *state) conflictVictims(slot int, tab machine.ReservationTable) []int {
	sc := s.p.scratch
	if sc == nil {
		// Direct state construction in tests: fall back to allocating.
		return s.mrt.conflicts(slot, tab)
	}
	sc.conflictEpoch++
	epoch := sc.conflictEpoch
	buf := sc.conflictBuf[:0]
	for _, u := range tab.Uses {
		if o := s.mrt.owner[s.mrt.cell(slot+u.Time, u.Resource)]; o != -1 && sc.conflictSeen[o] != epoch {
			sc.conflictSeen[o] = epoch
			buf = append(buf, o)
		}
	}
	sc.conflictBuf = buf
	return buf
}
