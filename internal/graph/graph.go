// Package graph implements the qualitative graph analyses used by the model
// checker: backward reachability (Prob0 precomputation), the Prob1 fixpoint,
// Tarjan's strongly-connected-components algorithm and bottom-SCC (BSCC)
// detection for steady-state analysis.
package graph

import (
	"github.com/performability/csrl/internal/mrm"
	"github.com/performability/csrl/internal/sparse"
)

// Digraph is an adjacency-list view of the non-zero structure of a rate
// matrix.
type Digraph struct {
	n   int
	adj [][]int // successors
	rev [][]int // predecessors
}

// FromRates builds the underlying digraph of a rate matrix.
func FromRates(r *sparse.CSR) *Digraph {
	n := r.Dim()
	g := &Digraph{
		n:   n,
		adj: make([][]int, n),
		rev: make([][]int, n),
	}
	r.Each(func(i, j int, v float64) {
		if v > 0 && i != j {
			g.adj[i] = append(g.adj[i], j)
			g.rev[j] = append(g.rev[j], i)
		}
	})
	return g
}

// N returns the number of vertices.
func (g *Digraph) N() int { return g.n }

// BackwardReachable returns the set of states that can reach `target` via
// paths whose intermediate states all lie in `through` (the target states
// themselves are always included). This is the standard precomputation for
// until formulas: with through = Sat(Φ) and target = Sat(Ψ) it yields the
// complement of Prob0(Φ U Ψ).
func (g *Digraph) BackwardReachable(through, target *mrm.StateSet) *mrm.StateSet {
	reach := target.Clone()
	queue := target.Slice()
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, u := range g.rev[v] {
			if !reach.Contains(u) && through.Contains(u) {
				reach.Add(u)
				queue = append(queue, u)
			}
		}
	}
	return reach
}

// Prob0 returns the set of states from which Φ U Ψ holds with probability
// exactly 0, i.e. the states that cannot reach Ψ through Φ-states.
func Prob0(g *Digraph, phi, psi *mrm.StateSet) *mrm.StateSet {
	return g.BackwardReachable(phi, psi).Complement()
}

// Prob1 returns the set of states from which Φ U Ψ holds with probability
// exactly 1. Standard fixpoint: iteratively remove states that can escape
// to a state with positive probability of never satisfying the until.
func Prob1(g *Digraph, phi, psi, prob0 *mrm.StateSet) *mrm.StateSet {
	// Start from the candidate set ¬Prob0 and repeatedly remove states that
	// have a transition leaving the candidate set while not being in Ψ, or
	// that can reach such a state through Φ∧¬Ψ states.
	candidate := prob0.Complement()
	for {
		// bad: states in candidate\Ψ with a successor outside candidate.
		bad := mrm.NewStateSet(g.n)
		candidate.Each(func(v int) {
			if psi.Contains(v) {
				return
			}
			for _, u := range g.adj[v] {
				if !candidate.Contains(u) {
					bad.Add(v)
					return
				}
			}
		})
		if bad.IsEmpty() {
			return candidate
		}
		// Remove bad states and everything that reaches them through
		// candidate Φ∧¬Ψ states.
		through := candidate.Intersect(phi).Minus(psi)
		infected := g.BackwardReachable(through, bad)
		candidate = candidate.Minus(infected)
	}
}

// SCCs returns the strongly connected components of the digraph using
// Tarjan's algorithm (iterative, so deep graphs do not overflow the stack).
// Components are returned in reverse topological order.
func (g *Digraph) SCCs() [][]int {
	const unvisited = -1
	var (
		index    = 0
		ids      = make([]int, g.n)
		low      = make([]int, g.n)
		onStack  = make([]bool, g.n)
		stack    []int
		comps    [][]int
		callFrom = make([]int, g.n) // DFS resume position per vertex
	)
	for i := range ids {
		ids[i] = unvisited
	}
	for root := 0; root < g.n; root++ {
		if ids[root] != unvisited {
			continue
		}
		// Iterative Tarjan with an explicit work stack.
		work := []int{root}
		ids[root] = index
		low[root] = index
		index++
		stack = append(stack, root)
		onStack[root] = true
		callFrom[root] = 0
		for len(work) > 0 {
			v := work[len(work)-1]
			advanced := false
			for callFrom[v] < len(g.adj[v]) {
				u := g.adj[v][callFrom[v]]
				callFrom[v]++
				if ids[u] == unvisited {
					ids[u] = index
					low[u] = index
					index++
					stack = append(stack, u)
					onStack[u] = true
					callFrom[u] = 0
					work = append(work, u)
					advanced = true
					break
				}
				if onStack[u] && ids[u] < low[v] {
					low[v] = ids[u]
				}
			}
			if advanced {
				continue
			}
			work = work[:len(work)-1]
			if len(work) > 0 {
				parent := work[len(work)-1]
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
			if low[v] == ids[v] {
				var comp []int
				for {
					u := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[u] = false
					comp = append(comp, u)
					if u == v {
						break
					}
				}
				comps = append(comps, comp)
			}
		}
	}
	return comps
}

// BSCCs returns the bottom strongly connected components: SCCs with no
// transition leaving the component. Every CTMC path eventually enters a
// BSCC, which is what the steady-state operator builds on.
func (g *Digraph) BSCCs() [][]int {
	comps := g.SCCs()
	compOf := make([]int, g.n)
	for ci, comp := range comps {
		for _, v := range comp {
			compOf[v] = ci
		}
	}
	var out [][]int
	for ci, comp := range comps {
		bottom := true
	scan:
		for _, v := range comp {
			for _, u := range g.adj[v] {
				if compOf[u] != ci {
					bottom = false
					break scan
				}
			}
		}
		if bottom {
			out = append(out, comp)
		}
	}
	return out
}
