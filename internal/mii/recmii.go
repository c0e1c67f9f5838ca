package mii

import (
	"context"
	"fmt"

	"modsched/internal/graph"
	"modsched/internal/ir"
	"modsched/internal/scherr"
)

// depGraph builds the dependence graph over all loop operations
// (pseudo-ops included; they can never be on circuits).
func depGraph(l *ir.Loop) *graph.Graph {
	deg := make([]int, l.NumOps())
	for _, e := range l.Edges {
		deg[e.From]++
	}
	g := graph.NewDegreed(l.NumOps(), deg)
	for _, e := range l.Edges {
		g.AddEdge(e.From, e.To)
	}
	return g
}

// SCCs returns the strongly connected components of the dependence graph
// over all loop operations, pseudo-ops included, in reverse topological
// order of the condensation (sinks first).
func SCCs(l *ir.Loop) [][]int { return depGraph(l).SCCs() }

// selfEdgeBounds returns, per op, the recurrence constraint implied by its
// reflexive edges — max ceil(d/dist) over them — computed in one pass over
// the edges into ws's reusable buffer. An op with a zero-distance self
// edge of positive delay (unschedulable at any II) holds -d instead, for
// the first such edge d in edge order. Only singleton SCCs read the
// result; multi-node SCCs see their self edges through MinDist.
func (ws *Scratch) selfEdgeBounds(l *ir.Loop, delays []int) []int {
	n := l.NumOps()
	if cap(ws.self) < n {
		ws.self = make([]int, n)
	}
	self := ws.self[:n]
	clear(self)
	for ei, e := range l.Edges {
		if e.From != e.To || self[e.From] < 0 {
			continue
		}
		d := delays[ei]
		if e.Distance == 0 {
			if d > 0 {
				self[e.From] = -d
			}
			continue
		}
		// Smallest II with d - II*dist <= 0, i.e. II >= ceil(d/dist).
		if d > 0 {
			if r := (d + e.Distance - 1) / e.Distance; r > self[e.From] {
				self[e.From] = r
			}
		}
	}
	return self
}

// sccFeasible reports whether the recurrences within one multi-node SCC
// admit a schedule at the candidate II (no positive MinDist diagonal).
// The matrix is built into ws's reusable buffers.
func sccFeasible(ctx context.Context, l *ir.Loop, delays []int, ii int, scc []int, c *Counters, ws *Scratch) (bool, error) {
	md, err := ws.MinDist(ctx, l, delays, ii, scc, c)
	if err != nil {
		return false, err
	}
	return !md.PositiveDiagonal(), nil
}

// searchSCC finds the smallest feasible II for one SCC, starting the probe
// at start (known-infeasible values below start are not revisited). The
// strategy follows Section 2.2: increment with doubling until feasible,
// then binary search between the last unsuccessful and first successful
// candidates.
//
// The first probe runs the scalar Floyd-Warshall (in the common case it
// is feasible outright and the search ends after one closure). Once a
// second probe becomes necessary, the II-independent path coefficients
// are factored once into a Profile and every further candidate is a
// cheap affine-max diagonal evaluation — exactly equal to the scalar
// closure at every II (see profile.go) — with the scalar path as the
// fallback when the profile exceeds its size cap. The decision depends
// only on probe outcomes, never on the caller's worker configuration, so
// counters stay deterministic.
func searchSCC(ctx context.Context, l *ir.Loop, delays []int, scc []int, start, maxII int, c *Counters, ws *Scratch) (int, error) {
	if ws == nil {
		ws = &Scratch{}
	}
	if start < 1 {
		start = 1
	}
	if ok, err := sccFeasible(ctx, l, delays, start, scc, c, ws); err != nil {
		return 0, err
	} else if ok {
		return start, nil
	}
	// A chain of probes follows (doubling, then binary search): amortize
	// them through the cross-II coefficient profile.
	prof := BuildProfile(l, delays, scc, c)
	probe := func(ii int) (bool, error) {
		if !prof.OK() {
			return sccFeasible(ctx, l, delays, ii, scc, c, ws)
		}
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return false, fmt.Errorf("mii: loop %s: MinDist aborted: %w", l.Name, err)
			}
		}
		positive, _ := prof.Diagonal(ii, c)
		return !positive, nil
	}
	lastBad := start
	inc := 1
	cand := start
	for {
		cand += inc
		inc *= 2
		if cand > maxII {
			ok, err := probe(maxII)
			if err != nil {
				return 0, err
			}
			if !ok {
				return 0, fmt.Errorf("mii: loop %s: recurrence infeasible at any II (zero-distance circuit?): %w",
					l.Name, scherr.ErrNoSchedule)
			}
			cand = maxII
			break
		}
		ok, err := probe(cand)
		if err != nil {
			return 0, err
		}
		if ok {
			break
		}
		lastBad = cand
	}
	// Binary search in (lastBad, cand]; cand is feasible.
	lo, hi := lastBad, cand
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		ok, err := probe(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// maxIIBound is a guaranteed-feasible II for any loop whose circuits all
// have positive total distance: with II at least the sum of positive
// delays plus one, every circuit's delay sum is dominated by II times its
// (>= 1) distance sum.
func maxIIBound(delays []int) int {
	s := 1
	for _, d := range delays {
		if d > 0 {
			s += d
		}
	}
	return s
}

// RecurrenceMII computes the recurrence-constrained lower bound by
// processing each SCC in turn, seeding each search with the running result
// (the paper's strategy; pass start = ResMII for the production MII
// computation, or start = 1 for the exact RecMII used in statistics).
// Single-operation SCCs are handled by the closed-form reflexive-edge
// bound without invoking ComputeMinDist.
func RecurrenceMII(l *ir.Loop, delays []int, start int, c *Counters) (int, error) {
	return recurrenceMII(nil, l, delays, SCCs(l), start, c, nil)
}

// recurrenceMII is the per-SCC search over comps, the dependence graph's
// SCCs in the order SCCs returns them. ctx is checked inside every MinDist
// closure (nil disables the checks); every feasibility probe of every SCC
// shares ws's buffers, and a nil ws uses a call-local scratch.
func recurrenceMII(ctx context.Context, l *ir.Loop, delays []int, comps [][]int, start int, c *Counters, ws *Scratch) (int, error) {
	if len(delays) != len(l.Edges) {
		return 0, fmt.Errorf("mii: loop %s: %d delays for %d edges: %w", l.Name, len(delays), len(l.Edges), scherr.ErrInvalidLoop)
	}
	if ws == nil {
		ws = &Scratch{}
	}
	self := ws.selfEdgeBounds(l, delays)
	maxII := maxIIBound(delays)
	running := start
	if running < 1 {
		running = 1
	}
	for _, scc := range comps {
		if len(scc) == 1 {
			op := scc[0]
			rec := self[op]
			if rec < 0 {
				return 0, fmt.Errorf("mii: loop %s: op %d has zero-distance self dependence with delay %d: %w",
					l.Name, op, -rec, scherr.ErrNoSchedule)
			}
			if rec > running {
				running = rec
			}
			continue
		}
		r, err := searchSCC(ctx, l, delays, scc, running, maxII, c, ws)
		if err != nil {
			return 0, err
		}
		if r > running {
			running = r
		}
	}
	return running, nil
}

// RecurrenceMIIWholeGraph computes the same bound as RecurrenceMII but
// feeds the entire dependence graph to ComputeMinDist instead of one SCC
// at a time — the O(N^3)-on-everything strategy the paper's per-SCC
// decomposition exists to avoid. It is used by the ablation benchmarks.
func RecurrenceMIIWholeGraph(l *ir.Loop, delays []int, start int, c *Counters) (int, error) {
	if len(delays) != len(l.Edges) {
		return 0, fmt.Errorf("mii: loop %s: %d delays for %d edges: %w", l.Name, len(delays), len(l.Edges), scherr.ErrInvalidLoop)
	}
	all := make([]int, l.NumOps())
	for i := range all {
		all[i] = i
	}
	return searchSCC(nil, l, delays, all, start, maxIIBound(delays), c, nil)
}

// RecMIIByCircuits computes the recurrence bound by enumerating elementary
// circuits (the Cydra 5 compiler's approach): for each circuit c,
// II >= ceil(Delay(c)/Distance(c)). It exists as a cross-check and
// ablation baseline for the MinDist computation; enumeration is capped at
// circuitLimit circuits (0 = unlimited). The boolean result reports
// whether the answer is exact (not truncated).
func RecMIIByCircuits(l *ir.Loop, delays []int, circuitLimit int) (int, bool, error) {
	return RecMIIByCircuitsContext(nil, l, delays, circuitLimit)
}

// RecMIIByCircuitsContext is RecMIIByCircuits with cancellation: ctx.Err()
// is polled inside the circuit enumeration (every root vertex and every
// emitted circuit) and between circuit evaluations, so a -timeout style
// deadline reaches the potentially exponential enumeration just as it
// already reaches the MinDist closures. A nil ctx disables the checks.
func RecMIIByCircuitsContext(ctx context.Context, l *ir.Loop, delays []int, circuitLimit int) (int, bool, error) {
	g := depGraph(l)
	// Collapse parallel edges by keeping, per (from,to,distance), the max
	// delay; Johnson enumerates vertex sequences, so for correctness with
	// parallel edges we instead evaluate all combinations via per-pair
	// aggregation: a circuit's worst delay uses the max-delay edge, but
	// edges of different distances between the same pair genuinely differ.
	// We therefore evaluate each vertex circuit against every distance
	// class of each hop, taking the worst ratio.
	hops := make(map[[2]int][]hop)
	for ei, e := range l.Edges {
		k := [2]int{e.From, e.To}
		hops[k] = append(hops[k], hop{delay: delays[ei], distance: e.Distance})
	}
	circuits, truncated, err := g.ElementaryCircuitsContext(ctx, circuitLimit)
	if err != nil {
		return 0, false, fmt.Errorf("mii: loop %s: circuit enumeration aborted: %w", l.Name, err)
	}
	rec := 0
	for ci, circ := range circuits {
		if ctx != nil && ci&63 == 0 {
			if err := ctx.Err(); err != nil {
				return 0, false, fmt.Errorf("mii: loop %s: circuit evaluation aborted: %w", l.Name, err)
			}
		}
		// For each hop, among the parallel edges the binding constraint at
		// a given II is max(delay - II*distance); a conservative and exact
		// treatment enumerates combinations, which explodes. Instead we
		// compute, for the circuit, the max over parallel-edge selections
		// of ceil(sum delay / sum distance) by trying each hop's
		// alternatives greedily — exact when at most one hop has parallel
		// edges, upper-bounded otherwise. Dependence graphs built by this
		// repository have at most a handful of parallel edges, and the
		// MinDist computation remains the authoritative value.
		best := evalCircuit(circ, hops)
		if best > rec {
			rec = best
		}
	}
	if rec == 0 {
		rec = 1
	}
	return rec, !truncated, nil
}

// evalCircuit returns max over parallel-edge choices of
// ceil(Delay(c)/Distance(c)) for one vertex circuit, enumerating
// combinations with a small search (capped).
func evalCircuit(circ []int, hops map[[2]int][]hop) int {
	n := len(circ)
	choices := make([][]hop, n)
	total := 1
	for i := 0; i < n; i++ {
		from, to := circ[i], circ[(i+1)%n]
		hs := hops[[2]int{from, to}]
		if len(hs) == 0 {
			return 0 // should not happen
		}
		choices[i] = hs
		total *= len(hs)
		if total > 4096 {
			// Fall back: take per-hop max delay and min distance
			// (a safe upper bound on the constraint).
			break
		}
	}
	if total <= 4096 {
		best := 0
		idx := make([]int, n)
		for {
			delay, dist := 0, 0
			for i := 0; i < n; i++ {
				h := choices[i][idx[i]]
				delay += h.delay
				dist += h.distance
			}
			if dist > 0 && delay > 0 {
				if r := (delay + dist - 1) / dist; r > best {
					best = r
				}
			}
			// increment mixed-radix counter
			i := 0
			for ; i < n; i++ {
				idx[i]++
				if idx[i] < len(choices[i]) {
					break
				}
				idx[i] = 0
			}
			if i == n {
				break
			}
		}
		return best
	}
	delay, dist := 0, 0
	for i := 0; i < n; i++ {
		from, to := circ[i], circ[(i+1)%n]
		hs := hops[[2]int{from, to}]
		maxD, minDist := hs[0].delay, hs[0].distance
		for _, h := range hs[1:] {
			if h.delay > maxD {
				maxD = h.delay
			}
			if h.distance < minDist {
				minDist = h.distance
			}
		}
		delay += maxD
		dist += minDist
	}
	if dist <= 0 || delay <= 0 {
		return 0
	}
	return (delay + dist - 1) / dist
}

type hop struct{ delay, distance int }
