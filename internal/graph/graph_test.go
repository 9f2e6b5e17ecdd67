package graph

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func TestAddEdgeValidation(t *testing.T) {
	g := New(3, "t")
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(0, 1); err == nil {
		t.Error("duplicate edge accepted")
	}
	if err := g.AddEdge(1, 0); err == nil {
		t.Error("reversed duplicate edge accepted")
	}
	if err := g.AddEdge(1, 1); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.AddEdge(0, 3); err == nil {
		t.Error("out-of-range vertex accepted")
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", g.NumEdges())
	}
}

func TestClosedFormDiameters(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want int
	}{
		{name: "line(10)", g: NewLine(10), want: 9},
		{name: "ring(10)", g: NewRing(10), want: 5},
		{name: "ring(11)", g: NewRing(11), want: 5},
		{name: "star(10)", g: NewStar(10), want: 2},
		{name: "complete(6)", g: NewComplete(6), want: 1},
		{name: "grid(4x7)", g: NewGrid(4, 7), want: 9},
		{name: "single", g: New(1, "single"), want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.g.Diameter(); got != tt.want {
				t.Fatalf("diameter = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestEdgeCounts(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want int
	}{
		{name: "line(10)", g: NewLine(10), want: 9},
		{name: "ring(10)", g: NewRing(10), want: 10},
		{name: "star(10)", g: NewStar(10), want: 9},
		{name: "complete(6)", g: NewComplete(6), want: 15},
		{name: "grid(3x3)", g: NewGrid(3, 3), want: 12},
		{name: "tree(7,2)", g: NewBalancedTree(7, 2), want: 6},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.g.NumEdges(); got != tt.want {
				t.Fatalf("edges = %d, want %d", got, tt.want)
			}
		})
	}
}

func TestBFSTreeValidity(t *testing.T) {
	g := NewGrid(5, 8)
	distance, parent := g.BFS(0)
	for v := 0; v < g.N(); v++ {
		if v == 0 {
			if distance[v] != 0 || parent[v] != -1 {
				t.Fatalf("root: dist=%d parent=%d", distance[v], parent[v])
			}
			continue
		}
		p := parent[v]
		if p < 0 {
			t.Fatalf("vertex %d unreachable in connected graph", v)
		}
		if !g.HasEdge(v, p) {
			t.Fatalf("parent edge {%d,%d} missing", v, p)
		}
		if distance[v] != distance[p]+1 {
			t.Fatalf("distance[%d]=%d but parent has %d", v, distance[v], distance[p])
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := New(4, "disc")
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	distance, parent := g.BFS(0)
	if distance[2] != -1 || parent[2] != -1 {
		t.Fatalf("unreachable vertex: dist=%d parent=%d", distance[2], parent[2])
	}
	if g.IsConnected() {
		t.Error("disconnected graph reported connected")
	}
}

func TestBalancedTreeStructure(t *testing.T) {
	g := NewBalancedTree(15, 2)
	if !g.IsConnected() {
		t.Fatal("tree disconnected")
	}
	if g.NumEdges() != 14 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	// Vertex i's parent is (i−1)/2.
	for i := 1; i < 15; i++ {
		if !g.HasEdge(i, (i-1)/2) {
			t.Fatalf("missing parent edge for %d", i)
		}
	}
}

func TestRandomConnectedIsConnected(t *testing.T) {
	f := func(seed uint64, kRaw, pRaw uint8) bool {
		k := int(kRaw%60) + 1
		p := float64(pRaw) / 255 * 0.2
		g := NewRandomConnected(k, p, seed)
		return g.IsConnected() && g.N() == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomConnectedDeterministic(t *testing.T) {
	a := NewRandomConnected(40, 0.1, 7)
	b := NewRandomConnected(40, 0.1, 7)
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("same seed, different edge counts: %d vs %d", a.NumEdges(), b.NumEdges())
	}
	for v := 0; v < a.N(); v++ {
		na, nb := a.Neighbors(v), b.Neighbors(v)
		if len(na) != len(nb) {
			t.Fatalf("vertex %d degree differs", v)
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("vertex %d neighbors differ", v)
			}
		}
	}
}

func TestPowerGraphDefinition(t *testing.T) {
	// In G^r, {u,v} is an edge iff 1 ≤ dist_G(u,v) ≤ r.
	g := NewRandomConnected(25, 0.05, 3)
	for _, r := range []int{1, 2, 3} {
		p := g.Power(r)
		for u := 0; u < g.N(); u++ {
			distance, _ := g.BFS(u)
			for v := 0; v < g.N(); v++ {
				if u == v {
					continue
				}
				want := distance[v] >= 1 && distance[v] <= r
				if got := p.HasEdge(u, v); got != want {
					t.Fatalf("r=%d: edge {%d,%d}=%v, distance=%d", r, u, v, got, distance[v])
				}
			}
		}
	}
}

func TestPowerOfLine(t *testing.T) {
	g := NewLine(10)
	p := g.Power(3)
	if got, want := p.Degree(0), 3; got != want {
		t.Errorf("degree of endpoint in line^3 = %d, want %d", got, want)
	}
	if got, want := p.Degree(5), 6; got != want {
		t.Errorf("degree of middle vertex in line^3 = %d, want %d", got, want)
	}
}

func TestPowerIdentity(t *testing.T) {
	// G^1 has exactly G's edges.
	g := NewGrid(3, 4)
	p := g.Power(1)
	if p.NumEdges() != g.NumEdges() {
		t.Fatalf("G^1 edges %d != G edges %d", p.NumEdges(), g.NumEdges())
	}
}

func TestEccentricityVsDiameter(t *testing.T) {
	g := NewLine(20)
	// Middle vertex has minimal eccentricity; endpoints maximal.
	if got := g.Eccentricity(0); got != 19 {
		t.Errorf("endpoint eccentricity %d, want 19", got)
	}
	if got := g.Eccentricity(10); got != 10 {
		t.Errorf("middle eccentricity %d, want 10", got)
	}
}

// generatorFamilies returns one graph from every generator.
func generatorFamilies() []*Graph {
	return []*Graph{
		NewLine(37),
		NewRing(41),
		NewStar(30),
		NewComplete(12),
		NewGrid(7, 9),
		NewBalancedTree(50, 3),
		NewRandomConnected(60, 0.05, 4),
		New(1, "single"),
	}
}

// boundingWorstCases adds to generatorFamilies' odd ring and complete
// graph the graphs on which the bounding search prunes little or must
// break ties: vertex-transitive ones (an even ring, a hypercube), where
// every vertex needs its own BFS, and ones whose eccentricities are spread
// wide (barbell, lollipop, random trees).
func boundingWorstCases(t *testing.T) []*Graph {
	t.Helper()
	gs := []*Graph{NewRing(40), hypercube(t, 6), barbell(t, 8, 5), lollipop(t, 9, 12)}
	for seed := uint64(1); seed <= 5; seed++ {
		gs = append(gs, NewRandomConnected(80, 0, seed))
	}
	return gs
}

// hypercube returns the d-dimensional hypercube Q_d (diameter d).
func hypercube(t *testing.T, d int) *Graph {
	g := New(1<<d, fmt.Sprintf("hypercube(%d)", d))
	for v := 0; v < 1<<d; v++ {
		for b := 0; b < d; b++ {
			if w := v ^ 1<<b; w > v {
				addEdges(t, g, [2]int{v, w})
			}
		}
	}
	return g
}

// barbell returns two K_m joined by a path of p inner vertices.
func barbell(t *testing.T, m, p int) *Graph {
	g := New(2*m+p, fmt.Sprintf("barbell(%d,%d)", m, p))
	clique(t, g, 0, m)
	clique(t, g, m+p, m)
	for v := m - 1; v < m+p; v++ {
		addEdges(t, g, [2]int{v, v + 1})
	}
	return g
}

// lollipop returns K_m with a path of p vertices hanging off vertex m−1.
func lollipop(t *testing.T, m, p int) *Graph {
	g := New(m+p, fmt.Sprintf("lollipop(%d,%d)", m, p))
	clique(t, g, 0, m)
	for v := m - 1; v+1 < m+p; v++ {
		addEdges(t, g, [2]int{v, v + 1})
	}
	return g
}

func clique(t *testing.T, g *Graph, lo, m int) {
	for u := lo; u < lo+m; u++ {
		for v := u + 1; v < lo+m; v++ {
			addEdges(t, g, [2]int{u, v})
		}
	}
}

func addEdges(t *testing.T, g *Graph, edges ...[2]int) {
	t.Helper()
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
}

// maxEccentricity is the all-pairs diameter: the largest eccentricity,
// each from the plain BFS.
func maxEccentricity(g *Graph) int {
	want := 0
	for v := 0; v < g.N(); v++ {
		want = max(want, g.Eccentricity(v))
	}
	return want
}

// TestDiameterMatchesEccentricities checks the bounding-search Diameter
// against the all-pairs maximum eccentricity on every generator and on the
// bounding search's worst cases.
func TestDiameterMatchesEccentricities(t *testing.T) {
	for _, g := range append(generatorFamilies(), boundingWorstCases(t)...) {
		if got, want := g.Diameter(), maxEccentricity(g); got != want {
			t.Errorf("%s: Diameter = %d, max eccentricity %d", g.Name(), got, want)
		}
	}
}

// FuzzDiameter checks the bounding-search Diameter against the all-pairs
// maximum eccentricity on random connected graphs: a random attachment
// tree plus independent extra edges, from trees to dense graphs.
func FuzzDiameter(f *testing.F) {
	f.Add(uint64(1), uint8(60), uint8(8))
	f.Add(uint64(2), uint8(1), uint8(0))
	f.Add(uint64(3), uint8(120), uint8(0))
	f.Add(uint64(4), uint8(30), uint8(255))
	f.Fuzz(func(t *testing.T, seed uint64, kRaw, pRaw uint8) {
		g := NewRandomConnected(int(kRaw)%150+1, float64(pRaw)/255, seed)
		if got, want := g.Diameter(), maxEccentricity(g); got != want {
			t.Fatalf("%s seed %d: Diameter = %d, max eccentricity %d", g.Name(), seed, got, want)
		}
	})
}

// TestDiameterDisconnectedPanicsOnCaller checks that a disconnected graph
// panics on the caller's goroutine, where recover sees it.
func TestDiameterDisconnectedPanicsOnCaller(t *testing.T) {
	g := New(6, "two paths")
	addEdges(t, g, [2]int{0, 1}, [2]int{1, 2}, [2]int{3, 4}, [2]int{4, 5})
	defer func() {
		if recover() == nil {
			t.Error("disconnected Diameter did not panic")
		}
	}()
	g.Diameter()
}

// TestPowerMatchesDistances checks the scratch-BFS Power against the plain
// BFS distances on every generator, with sorted neighbor lists.
func TestPowerMatchesDistances(t *testing.T) {
	for _, g := range generatorFamilies() {
		for _, r := range []int{1, 2, 5} {
			p := g.Power(r)
			for u := 0; u < g.N(); u++ {
				distance, _ := g.BFS(u)
				var want []int
				for v, d := range distance {
					if d >= 1 && d <= r {
						want = append(want, v)
					}
				}
				if got := p.Neighbors(u); !slices.Equal(got, want) {
					t.Fatalf("%s^%d: neighbors of %d = %v, want %v", g.Name(), r, u, got, want)
				}
			}
		}
	}
}

func TestConstructorPanics(t *testing.T) {
	cases := []struct {
		name string
		f    func()
	}{
		{name: "New(0)", f: func() { New(0, "") }},
		{name: "NewRing(2)", f: func() { NewRing(2) }},
		{name: "NewGrid(0,5)", f: func() { NewGrid(0, 5) }},
		{name: "NewBalancedTree arity 0", f: func() { NewBalancedTree(5, 0) }},
		{name: "NewRandomConnected(0)", f: func() { NewRandomConnected(0, 0.5, 1) }},
		{name: "NewRandomConnected p>1", f: func() { NewRandomConnected(5, 1.5, 1) }},
		{name: "Power(0)", f: func() { NewLine(5).Power(0) }},
		{name: "BFS out of range", f: func() { NewLine(5).BFS(5) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", tc.name)
				}
			}()
			tc.f()
		})
	}
}

func TestDegreeSumEqualsTwiceEdges(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		k := int(kRaw%40) + 2
		g := NewRandomConnected(k, 0.1, seed)
		sum := 0
		for v := 0; v < k; v++ {
			sum += g.Degree(v)
		}
		return sum == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDiameterGrid(b *testing.B) {
	g := NewGrid(30, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Diameter()
	}
}

func BenchmarkPowerGraph(b *testing.B) {
	g := NewRandomConnected(200, 0.02, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Power(3)
	}
}

// TestPortsConcurrentFirstUse checks that goroutines racing to build a
// fresh graph's port tables all get the one table that won, and that
// AddEdge drops it.
func TestPortsConcurrentFirstUse(t *testing.T) {
	g := NewRandomConnected(200, 0.05, 3)
	got := make([]*Ports, 8)
	var wg sync.WaitGroup
	wg.Add(len(got))
	for i := range got {
		go func() {
			defer wg.Done()
			got[i] = g.Ports()
		}()
	}
	wg.Wait()
	for i, p := range got {
		if p != got[0] {
			t.Fatalf("goroutine %d got a different port table", i)
		}
	}
	if g.Ports() != got[0] {
		t.Fatal("port table rebuilt for an unchanged graph")
	}
	u, v := 0, 1
	for g.HasEdge(u, v) {
		v++
	}
	addEdges(t, g, [2]int{u, v})
	if p := g.Ports(); p == got[0] || int(p.Start[g.N()]) != 2*g.NumEdges() {
		t.Fatal("AddEdge did not drop the port table")
	}
}
