// Package graph provides the directed-graph algorithms the modulo
// scheduler depends on: strongly connected components (Tarjan), topological
// ordering, and elementary-circuit enumeration (Johnson's algorithm, the
// modern replacement for the Tiernan search the Cydra 5 compiler used for
// its RecMII computation).
package graph

// Graph is a directed graph on vertices 0..N-1 with adjacency lists.
// Parallel edges and self-loops are permitted.
type Graph struct {
	N   int
	Adj [][]int
}

// New creates an empty graph on n vertices.
func New(n int) *Graph {
	return &Graph{N: n, Adj: make([][]int, n)}
}

// NewDegreed creates a graph on n vertices whose adjacency lists are
// pre-carved from one shared backing array according to the given
// out-degrees (CSR layout). Subsequent AddEdge calls fill the lists
// without reallocating, as long as each vertex receives exactly its
// declared degree. deg is not retained.
func NewDegreed(n int, deg []int) *Graph {
	g := &Graph{N: n, Adj: make([][]int, n)}
	total := 0
	for _, d := range deg {
		total += d
	}
	back := make([]int, total)
	o := 0
	for i, d := range deg {
		g.Adj[i] = back[o : o : o+d]
		o += d
	}
	return g
}

// AddEdge appends the edge from -> to.
func (g *Graph) AddEdge(from, to int) {
	g.Adj[from] = append(g.Adj[from], to)
}

// NumEdges counts edges (parallel edges counted individually).
func (g *Graph) NumEdges() int {
	n := 0
	for _, a := range g.Adj {
		n += len(a)
	}
	return n
}

// SCCs computes the strongly connected components using Tarjan's
// algorithm (iterative, so deep graphs cannot overflow the goroutine
// stack). Components are emitted in reverse topological order of the
// condensation: every edge between distinct components goes from a
// later-emitted component to an earlier-emitted one.
func (g *Graph) SCCs() [][]int {
	const unvisited = -1
	index := make([]int, g.N)
	low := make([]int, g.N)
	onStack := make([]bool, g.N)
	for i := range index {
		index[i] = unvisited
	}
	type frame struct {
		v    int
		edge int // next adjacency index to explore
	}
	// Every vertex belongs to exactly one component, so all component
	// slices are carved out of one shared backing array; the stacks are
	// likewise bounded by N, so everything here is allocated exactly once.
	var (
		stack     = make([]int, 0, g.N)
		callStack = make([]frame, 0, g.N)
		compBack  = make([]int, 0, g.N)
		comps     = make([][]int, 0, g.N)
		counter   int
	)
	for root := 0; root < g.N; root++ {
		if index[root] != unvisited {
			continue
		}
		callStack = append(callStack[:0], frame{v: root})
		index[root] = counter
		low[root] = counter
		counter++
		stack = append(stack, root)
		onStack[root] = true

		for len(callStack) > 0 {
			f := &callStack[len(callStack)-1]
			if f.edge < len(g.Adj[f.v]) {
				w := g.Adj[f.v][f.edge]
				f.edge++
				if index[w] == unvisited {
					index[w] = counter
					low[w] = counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					callStack = append(callStack, frame{v: w})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			// Post-order: pop the frame.
			v := f.v
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				p := &callStack[len(callStack)-1]
				if low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
			if low[v] == index[v] {
				start := len(compBack)
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					compBack = append(compBack, w)
					if w == v {
						break
					}
				}
				comps = append(comps, compBack[start:len(compBack):len(compBack)])
			}
		}
	}
	return comps
}

// SCCIndex returns, for each vertex, the index of its component in the
// slice returned by SCCs.
func SCCIndex(n int, comps [][]int) []int {
	idx := make([]int, n)
	for ci, comp := range comps {
		for _, v := range comp {
			idx[v] = ci
		}
	}
	return idx
}

// IsTrivialSCC reports whether a component is trivial: a single vertex
// with no self-loop in g.
func (g *Graph) IsTrivialSCC(comp []int) bool {
	if len(comp) != 1 {
		return false
	}
	v := comp[0]
	for _, w := range g.Adj[v] {
		if w == v {
			return false
		}
	}
	return true
}

// Topo returns a topological order of an acyclic graph. The second result
// is false if the graph contains a cycle.
func (g *Graph) Topo() ([]int, bool) {
	indeg := make([]int, g.N)
	for _, adj := range g.Adj {
		for _, w := range adj {
			indeg[w]++
		}
	}
	queue := make([]int, 0, g.N)
	for v, d := range indeg {
		if d == 0 {
			queue = append(queue, v)
		}
	}
	order := make([]int, 0, g.N)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, w := range g.Adj[v] {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	return order, len(order) == g.N
}
