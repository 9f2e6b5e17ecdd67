// Package graph provides the network topologies the CONGEST and LOCAL
// simulations run on: lines, rings, stars, grids, complete graphs, balanced
// trees and random connected graphs, together with BFS, diameter and the
// power graph G^r needed by the LOCAL tester's MIS construction.
//
// Graphs are simple (no self-loops or parallel edges) and undirected.
// Vertices are 0-indexed.
package graph

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"github.com/unifdist/unifdist/internal/rng"
)

// Graph is a simple undirected graph.
type Graph struct {
	name string
	adj  [][]int
	// ports caches Ports until the next AddEdge.
	ports atomic.Pointer[Ports]
}

// New returns an empty graph with n vertices and no edges.
func New(n int, name string) *Graph {
	if n <= 0 {
		panic("graph: New requires n > 0")
	}
	return &Graph{name: name, adj: make([][]int, n)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.adj) }

// Name returns the topology's label.
func (g *Graph) Name() string { return g.name }

// AddEdge inserts the undirected edge {u, v}. Self-loops and duplicate
// edges are rejected with an error.
func (g *Graph) AddEdge(u, v int) error {
	n := len(g.adj)
	if u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("graph: duplicate edge {%d,%d}", u, v)
	}
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	g.ports.Store(nil)
	return nil
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	for _, w := range g.adj[u] {
		if w == v {
			return true
		}
	}
	return false
}

// Neighbors returns v's neighbor list. The returned slice must not be
// modified.
func (g *Graph) Neighbors(v int) []int { return g.adj[v] }

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int {
	total := 0
	for _, nb := range g.adj {
		total += len(nb)
	}
	return total / 2
}

// sortAdj normalizes neighbor lists to sorted order (deterministic
// iteration for reproducible simulations).
func (g *Graph) sortAdj() {
	for _, nb := range g.adj {
		sort.Ints(nb)
	}
}

// BFS runs breadth-first search from root and returns per-vertex distance
// and parent arrays. Unreachable vertices have distance −1 and parent −1;
// the root's parent is −1.
func (g *Graph) BFS(root int) (distance, parent []int) {
	n := len(g.adj)
	if root < 0 || root >= n {
		panic(fmt.Sprintf("graph: BFS root %d out of range", root))
	}
	distance = make([]int, n)
	parent = make([]int, n)
	for i := range distance {
		distance[i] = -1
		parent[i] = -1
	}
	distance[root] = 0
	queue := []int{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.adj[v] {
			if distance[w] == -1 {
				distance[w] = distance[v] + 1
				parent[w] = v
				queue = append(queue, w)
			}
		}
	}
	return distance, parent
}

// IsConnected reports whether the graph is connected.
func (g *Graph) IsConnected() bool {
	s := newBFSScratch(len(g.adj))
	s.run(g, 0, -1)
	return len(s.queue) == len(g.adj)
}

// Eccentricity returns the maximum BFS distance from v. It panics if the
// graph is disconnected.
func (g *Graph) Eccentricity(v int) int {
	distance, _ := g.BFS(v)
	max := 0
	for _, d := range distance {
		if d == -1 {
			panic("graph: eccentricity of a disconnected graph")
		}
		if d > max {
			max = d
		}
	}
	return max
}

// Diameter returns the exact diameter, the largest eccentricity, by the
// bounding search of Takes and Kosters ("Determining the diameter of small
// world networks", CIKM 2011). A BFS from v bounds every vertex w at
// distance d by max(d, ecc(v)−d) ≤ ecc(w) ≤ ecc(v)+d, and the diameter by
// ecc(v) ≤ D ≤ 2·ecc(v). The search keeps each candidate's tightest bounds,
// drops a candidate once its upper bound cannot beat the largest
// eccentricity found, and stops when no candidate is left or the diameter's
// bounds meet. Sources alternate between the candidate with the largest
// upper bound and the one with the smallest lower bound, ties going to the
// higher degree and then the lower index. On small-world and grid graphs a
// handful of searches settle every vertex; a vertex-transitive graph such
// as a ring or a complete graph still needs one per vertex. It panics if
// the graph is disconnected.
func (g *Graph) Diameter() int {
	n := len(g.adj)
	s := newBFSScratch(n)
	s.run(g, 0, -1)
	if len(s.queue) != n {
		panic("graph: eccentricity of a disconnected graph")
	}
	s.reset()
	lower, upper := make([]int32, n), make([]int32, n)
	cand := make([]int32, n)
	for v := range cand {
		cand[v], upper[v] = int32(v), math.MaxInt32
	}
	best, bound := int32(0), int32(math.MaxInt32)
	// hi and lo are the candidates with the largest upper and the smallest
	// lower bound; the first source is the highest-degree vertex.
	var hi, lo int32
	for v := range cand {
		if len(g.adj[v]) > len(g.adj[hi]) {
			hi = int32(v)
		}
	}
	for pickHi := true; len(cand) > 0 && best < bound; pickHi = !pickHi {
		v := lo
		if pickHi {
			v = hi
		}
		s.run(g, int(v), -1)
		ecc := s.dist[s.queue[len(s.queue)-1]]
		best, bound = max(best, ecc), min(bound, 2*ecc)
		kept := cand[:0]
		for _, w := range cand {
			d := s.dist[w]
			lower[w] = max(lower[w], d, ecc-d)
			upper[w] = min(upper[w], ecc+d)
			if upper[w] <= best {
				continue
			}
			if len(kept) == 0 || g.ahead(w, hi, upper[w]-upper[hi]) {
				hi = w
			}
			if len(kept) == 0 || g.ahead(w, lo, lower[lo]-lower[w]) {
				lo = w
			}
			kept = append(kept, w)
		}
		s.reset()
		cand = kept
	}
	return int(best)
}

// ahead reports whether the bounding search prefers w over v as its next
// source, given by how much w's bound beats v's; ties go to the higher
// degree, then to the vertex already chosen.
func (g *Graph) ahead(w, v, by int32) bool {
	return by > 0 || by == 0 && len(g.adj[w]) > len(g.adj[v])
}

// bfsScratch is one reusable breadth-first search: queue lists the reached
// vertices in BFS order, so the last one is the farthest, and dist holds
// their distances (−1 for every other vertex).
type bfsScratch struct {
	dist  []int32
	queue []int32
}

func newBFSScratch(n int) *bfsScratch {
	s := &bfsScratch{dist: make([]int32, n), queue: make([]int32, 0, n)}
	for i := range s.dist {
		s.dist[i] = -1
	}
	return s
}

// run searches from src, to depth limit when limit ≥ 0. s must be fresh
// or reset.
func (s *bfsScratch) run(g *Graph, src int, limit int32) {
	s.dist[src] = 0
	s.queue = append(s.queue, int32(src))
	for head := 0; head < len(s.queue); head++ {
		v := s.queue[head]
		d := s.dist[v]
		if d == limit {
			continue
		}
		for _, w := range g.adj[v] {
			if s.dist[w] < 0 {
				s.dist[w] = d + 1
				s.queue = append(s.queue, int32(w))
			}
		}
	}
}

// reset clears the distances of the vertices the last run reached.
func (s *bfsScratch) reset() {
	for _, v := range s.queue {
		s.dist[v] = -1
	}
	s.queue = s.queue[:0]
}

// Ports is a graph's port numbering in compressed sparse row form, the
// layout a message-passing engine routes over: vertex v's ports
// 0 … deg(v)−1 are the slots Start[v] … Start[v+1]−1 of the flat edge
// arrays, in neighbor-list order.
type Ports struct {
	Start []int32 // len N()+1: port-slot offsets
	Dst   []int32 // per directed edge (v, port): the neighbor vertex
	// RevPort is, per directed edge (v, port)→u, the port index of v in
	// u's neighbor list — where a message sent by v on that port lands.
	RevPort   []int32
	MaxDegree int
}

// Ports returns g's port tables. They are built on first use and kept on
// the graph until its next AddEdge, so the thousands of simulations a trial
// loop runs on one graph build them once, and they are collected with the
// graph. Ports is safe for concurrent use; the tables must not be modified.
func (g *Graph) Ports() *Ports {
	if p := g.ports.Load(); p != nil {
		return p
	}
	p := g.buildPorts()
	if !g.ports.CompareAndSwap(nil, p) {
		return g.ports.Load()
	}
	return p
}

func (g *Graph) buildPorts() *Ports {
	n := len(g.adj)
	p := &Ports{Start: make([]int32, n+1)}
	total := 0
	for v, nb := range g.adj {
		p.Start[v] = int32(total)
		total += len(nb)
		p.MaxDegree = max(p.MaxDegree, len(nb))
	}
	p.Start[n] = int32(total)
	p.Dst = make([]int32, total)
	p.RevPort = make([]int32, total)
	// portAt[u<<32|w] is w's port index in u's neighbor list.
	portAt := make(map[uint64]int32, total)
	for u, nb := range g.adj {
		for i, w := range nb {
			portAt[uint64(u)<<32|uint64(uint32(w))] = int32(i)
		}
	}
	for v, nb := range g.adj {
		base := p.Start[v]
		for i, u := range nb {
			p.Dst[base+int32(i)] = int32(u)
			p.RevPort[base+int32(i)] = portAt[uint64(u)<<32|uint64(uint32(v))]
		}
	}
	return p
}

// Power returns G^r: vertices are the same and {u, v} is an edge iff their
// distance in g is between 1 and r. It panics if r < 1.
func (g *Graph) Power(r int) *Graph {
	if r < 1 {
		panic("graph: Power requires r >= 1")
	}
	n := len(g.adj)
	p := New(n, fmt.Sprintf("%s^%d", g.name, r))
	s := newBFSScratch(n)
	limit := int32(min(r, n))
	for v := 0; v < n; v++ {
		s.run(g, v, limit)
		for _, w := range s.queue[1:] {
			if int(w) > v {
				p.adj[v] = append(p.adj[v], int(w))
				p.adj[w] = append(p.adj[w], v)
			}
		}
		s.reset()
	}
	p.sortAdj()
	return p
}

// NewLine returns the path graph on k vertices (diameter k−1).
func NewLine(k int) *Graph {
	g := New(k, fmt.Sprintf("line(%d)", k))
	for i := 0; i+1 < k; i++ {
		mustEdge(g, i, i+1)
	}
	return g
}

// NewRing returns the cycle on k vertices (diameter ⌊k/2⌋). It panics for
// k < 3.
func NewRing(k int) *Graph {
	if k < 3 {
		panic("graph: NewRing requires k >= 3")
	}
	g := New(k, fmt.Sprintf("ring(%d)", k))
	for i := 0; i < k; i++ {
		mustEdge(g, i, (i+1)%k)
	}
	return g
}

// NewStar returns the star with center 0 and k−1 leaves (diameter 2 for
// k ≥ 3).
func NewStar(k int) *Graph {
	g := New(k, fmt.Sprintf("star(%d)", k))
	for i := 1; i < k; i++ {
		mustEdge(g, 0, i)
	}
	return g
}

// NewComplete returns K_k.
func NewComplete(k int) *Graph {
	g := New(k, fmt.Sprintf("complete(%d)", k))
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			mustEdge(g, i, j)
		}
	}
	return g
}

// NewGrid returns the rows×cols grid graph (diameter rows+cols−2).
func NewGrid(rows, cols int) *Graph {
	if rows <= 0 || cols <= 0 {
		panic("graph: NewGrid requires positive dimensions")
	}
	g := New(rows*cols, fmt.Sprintf("grid(%dx%d)", rows, cols))
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				mustEdge(g, id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				mustEdge(g, id(r, c), id(r+1, c))
			}
		}
	}
	return g
}

// NewBalancedTree returns the complete arity-ary tree with k vertices,
// numbered in BFS order (vertex i's parent is (i−1)/arity).
func NewBalancedTree(k, arity int) *Graph {
	if arity < 1 {
		panic("graph: NewBalancedTree requires arity >= 1")
	}
	g := New(k, fmt.Sprintf("tree(%d,arity=%d)", k, arity))
	for i := 1; i < k; i++ {
		mustEdge(g, (i-1)/arity, i)
	}
	return g
}

// NewRandomConnected returns a connected random graph: a uniform random
// attachment tree (guaranteeing connectivity) plus each non-tree edge
// independently with probability p. Deterministic in seed.
func NewRandomConnected(k int, p float64, seed uint64) *Graph {
	if k <= 0 {
		panic("graph: NewRandomConnected requires k > 0")
	}
	if p < 0 || p > 1 {
		panic("graph: edge probability outside [0, 1]")
	}
	r := rng.New(seed)
	g := New(k, fmt.Sprintf("random(%d,p=%.3g)", k, p))
	for i := 1; i < k; i++ {
		mustEdge(g, r.Intn(i), i)
	}
	if p > 0 {
		for u := 0; u < k; u++ {
			for v := u + 1; v < k; v++ {
				if !g.HasEdge(u, v) && r.Float64() < p {
					mustEdge(g, u, v)
				}
			}
		}
	}
	g.sortAdj()
	return g
}

func mustEdge(g *Graph, u, v int) {
	if err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}
