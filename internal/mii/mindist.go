package mii

import (
	"context"
	"fmt"
	"math"

	"modsched/internal/ir"
)

// NegInf is the MinDist value meaning "no path". It is far enough from
// overflow that adding two in-range path lengths stays representable.
const NegInf = math.MinInt / 4

// MinDist is the matrix of Section 2.2: entry [i][j] is the minimum
// permissible interval between the schedule time of operation i and that
// of operation j in the same iteration, at a particular II. Entries are
// NegInf where no dependence path exists. The matrix may be computed over
// a subset of the loop's operations (one SCC at a time).
//
// The op-index -> matrix-row translation is a dense slice rather than a
// map: At is on the scheduler's innermost paths (the slack scheduler
// performs two lookups per placed-op examination) and a map lookup there
// costs hashing plus a bucket probe per access.
type MinDist struct {
	II    int
	Nodes []int // loop op indices covered, in matrix order
	index []int // loop op index -> matrix row, -1 where not covered
	d     []int
	n     int
}

// At returns the entry for loop ops (i, j), which must be covered.
func (md *MinDist) At(i, j int) int {
	return md.d[md.index[i]*md.n+md.index[j]]
}

// Row returns the matrix row of loop op i, or -1 if i is not covered.
func (md *MinDist) Row(i int) int {
	if i < 0 || i >= len(md.index) {
		return -1
	}
	return md.index[i]
}

// atRC accesses by matrix row/col.
func (md *MinDist) atRC(r, c int) int { return md.d[r*md.n+c] }

// PositiveDiagonal reports whether any operation would have to be
// scheduled after itself, i.e. the II is infeasible for these recurrences.
func (md *MinDist) PositiveDiagonal() bool {
	for i := 0; i < md.n; i++ {
		if md.d[i*md.n+i] > 0 {
			return true
		}
	}
	return false
}

// ZeroDiagonal reports whether some diagonal entry is exactly zero, i.e.
// at least one recurrence circuit is tight at this II.
func (md *MinDist) ZeroDiagonal() bool {
	for i := 0; i < md.n; i++ {
		if md.d[i*md.n+i] == 0 {
			return true
		}
	}
	return false
}

// Scratch owns reusable MinDist buffers: the matrix, the dense op->row
// index, and the node list. The RecMII search probes one SCC at a chain
// of candidate IIs (increment, doubling, then binary search) and every
// probe needs a matrix of the same shape, so reusing one buffer removes
// the dominant allocation of the MII computation. A Scratch is not safe
// for concurrent use; the parallel experiment harness gives each worker
// its own (via the scheduler's internal pool).
//
// The *MinDist returned by a Scratch aliases the scratch buffers: it is
// valid until the next MinDist call on the same Scratch.
type Scratch struct {
	md   MinDist
	self []int // per-op reflexive-edge bounds (selfEdgeBounds)
}

// Reset releases the scratch's buffers, returning it to its zero state.
// Useful when a long-lived scratch last touched an unusually large loop.
func (ws *Scratch) Reset() { *ws = Scratch{} }

// MinDist computes the matrix into the scratch's reusable buffers. See
// ComputeMinDistContext for the semantics.
func (ws *Scratch) MinDist(ctx context.Context, l *ir.Loop, delays []int, ii int, nodes []int, c *Counters) (*MinDist, error) {
	md := &ws.md
	nOps := l.NumOps()
	n := len(nodes)

	// Dense index upkeep. Invariant between calls: every entry of the
	// full backing array is -1, so only the previous call's rows (listed
	// in md.Nodes) need clearing, not the whole array.
	if cap(md.index) < nOps {
		md.index = make([]int, nOps)
		for i := range md.index {
			md.index[i] = -1
		}
	} else {
		full := md.index[:cap(md.index)]
		for _, v := range md.Nodes {
			full[v] = -1
		}
		md.index = full[:nOps]
	}
	md.Nodes = append(md.Nodes[:0], nodes...)
	for r, v := range md.Nodes {
		md.index[v] = r
	}

	md.II = ii
	md.n = n
	if cap(md.d) < n*n {
		md.d = make([]int, n*n)
	} else {
		md.d = md.d[:n*n]
	}
	if c != nil {
		c.MinDistCalls++
	}
	for i := range md.d {
		md.d[i] = NegInf
	}
	for ei, e := range l.Edges {
		r, cc := md.index[e.From], md.index[e.To]
		if r < 0 || cc < 0 {
			continue
		}
		w := delays[ei] - ii*e.Distance
		if w > md.d[r*n+cc] {
			md.d[r*n+cc] = w
		}
	}
	d := md.d
	for k := 0; k < n; k++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("mii: loop %s: MinDist aborted: %w", l.Name, err)
			}
		}
		kn := k * n
		for i := 0; i < n; i++ {
			dik := d[i*n+k]
			if dik == NegInf {
				if c != nil {
					c.MinDistInner += int64(n)
				}
				continue
			}
			in := i * n
			for j := 0; j < n; j++ {
				if c != nil {
					c.MinDistInner++
				}
				if dkj := d[kn+j]; dkj != NegInf && dik+dkj > d[in+j] {
					d[in+j] = dik + dkj
				}
			}
		}
	}
	return md, nil
}

// ComputeMinDist builds the MinDist matrix for the given II over the
// subset of operations in nodes (pass all op indices for the whole graph).
// delays is indexed like l.Edges. Only edges with both endpoints inside
// nodes contribute.
//
// Initialization: MinDist[i][j] >= Delay(e) - II*Distance(e) for each edge
// e from i to j. Closure: max-plus Floyd-Warshall (the minimal
// cost-to-time-ratio-cycle formulation of Huff). O(n^3); the innermost
// relaxation count is recorded in c.MinDistInner.
func ComputeMinDist(l *ir.Loop, delays []int, ii int, nodes []int, c *Counters) *MinDist {
	md, _ := ComputeMinDistContext(nil, l, delays, ii, nodes, c) // nil ctx: cannot fail
	return md
}

// ComputeMinDistContext is ComputeMinDist with cancellation: ctx.Err() is
// checked once per outer Floyd-Warshall iteration (O(n) checks against
// O(n^3) work), so a deadline interrupts even a whole-graph closure on a
// large loop promptly. A nil ctx disables the checks.
//
// Each call allocates a fresh matrix; hot paths that probe many IIs
// should hold a Scratch and call its MinDist method instead.
func ComputeMinDistContext(ctx context.Context, l *ir.Loop, delays []int, ii int, nodes []int, c *Counters) (*MinDist, error) {
	var ws Scratch
	md, err := ws.MinDist(ctx, l, delays, ii, nodes, c)
	if err != nil {
		return nil, err
	}
	out := *md // detach from the scratch so the result owns its buffers
	return &out, nil
}

// AllNodes returns 0..NumOps-1, the node set for a whole-graph MinDist.
func AllNodes(l *ir.Loop) []int {
	nodes := make([]int, l.NumOps())
	for i := range nodes {
		nodes[i] = i
	}
	return nodes
}
