package graph

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// paperGraph builds a 12-vertex fixture modeled on the running example of
// Figure 1 in the KTG paper (reviewers u0..u11). The figure's exact edge
// set is not recoverable from the text (its worked examples are mutually
// inconsistent), so this fixture reproduces the documented landmarks we
// can verify: u3's 1-hop neighborhood {u0,u2,u4,u9}, dist(u3,u5) = 3, and
// the direct edge u6–u7.
func paperGraph() *Graph {
	return FromEdges(12, [][2]Vertex{
		{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 9}, {0, 11},
		{2, 3}, {3, 4}, {3, 9},
		{4, 6}, {4, 8}, {5, 6}, {6, 7}, {6, 9}, {7, 8},
		{9, 10}, {10, 11},
	})
}

func lineGraph(n int) *Graph {
	edges := make([][2]Vertex, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, [2]Vertex{Vertex(i), Vertex(i + 1)})
	}
	return FromEdges(n, edges)
}

func TestBuilderBasics(t *testing.T) {
	g := FromEdges(4, [][2]Vertex{{0, 1}, {1, 2}, {2, 3}, {0, 1}, {1, 0}, {2, 2}})
	if g.NumVertices() != 4 {
		t.Fatalf("NumVertices = %d, want 4", g.NumVertices())
	}
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3 (duplicates and self-loops dropped)", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("edge {0,1} missing or asymmetric")
	}
	if g.HasEdge(0, 3) {
		t.Error("phantom edge {0,3}")
	}
	if g.Degree(1) != 2 {
		t.Errorf("Degree(1) = %d, want 2", g.Degree(1))
	}
	if err := Validate(g); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestBuilderGrowsVertexCount(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 7)
	g := b.Build()
	if g.NumVertices() != 8 {
		t.Fatalf("NumVertices = %d, want 8", g.NumVertices())
	}
}

func TestEmptyGraph(t *testing.T) {
	g := FromEdges(0, nil)
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatal("empty graph not empty")
	}
	if g.AverageDegree() != 0 {
		t.Error("AverageDegree of empty graph should be 0")
	}
	if g.MaxDegree() != 0 {
		t.Error("MaxDegree of empty graph should be 0")
	}
}

func TestIsolatedVertices(t *testing.T) {
	g := FromEdges(5, [][2]Vertex{{0, 1}})
	if g.Degree(3) != 0 {
		t.Error("isolated vertex has nonzero degree")
	}
	labels, count := Components(g)
	if count != 4 {
		t.Fatalf("Components count = %d, want 4", count)
	}
	if labels[0] != labels[1] {
		t.Error("vertices 0 and 1 in different components")
	}
}

func TestEdgesIteration(t *testing.T) {
	g := FromEdges(4, [][2]Vertex{{1, 0}, {2, 1}, {3, 2}})
	var got [][2]Vertex
	g.Edges(func(u, v Vertex) bool {
		got = append(got, [2]Vertex{u, v})
		return true
	})
	want := [][2]Vertex{{0, 1}, {1, 2}, {2, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Edges = %v, want %v", got, want)
	}
	// Early stop.
	n := 0
	g.Edges(func(u, v Vertex) bool { n++; return false })
	if n != 1 {
		t.Errorf("early stop visited %d edges, want 1", n)
	}
}

func TestTraverserDistances(t *testing.T) {
	g := lineGraph(6) // 0-1-2-3-4-5
	tr := NewTraverser(6)
	cases := []struct {
		u, v Vertex
		cap  int
		want int
	}{
		{0, 0, -1, 0},
		{0, 1, -1, 1},
		{0, 5, -1, 5},
		{0, 5, 4, -1},
		{0, 5, 5, 5},
		{2, 4, 2, 2},
		{2, 4, 1, -1},
	}
	for _, c := range cases {
		if got := tr.Distance(g, c.u, c.v, c.cap); got != c.want {
			t.Errorf("Distance(%d,%d,cap=%d) = %d, want %d", c.u, c.v, c.cap, got, c.want)
		}
	}
}

func TestTraverserWithin(t *testing.T) {
	g := lineGraph(4)
	tr := NewTraverser(4)
	if !tr.Within(g, 0, 0, 0) {
		t.Error("Within(u,u,0) should be true")
	}
	if tr.Within(g, 0, 1, 0) {
		t.Error("Within with k=0 and u!=v should be false")
	}
	if !tr.Within(g, 0, 2, 2) {
		t.Error("Within(0,2,2) should be true")
	}
	if tr.Within(g, 0, 3, 2) {
		t.Error("Within(0,3,2) should be false")
	}
}

func TestTraverserUnreachable(t *testing.T) {
	g := FromEdges(4, [][2]Vertex{{0, 1}, {2, 3}})
	tr := NewTraverser(4)
	if got := tr.Distance(g, 0, 3, -1); got != -1 {
		t.Errorf("Distance across components = %d, want -1", got)
	}
}

func TestLevels(t *testing.T) {
	g := paperGraph()
	var levels [][]Vertex
	NewMultiBFS(g.NumVertices()).Run(g, []Vertex{3}, 2, func(d int, verts []Vertex, masks []uint64) {
		for _, m := range masks {
			if m != 1 {
				t.Fatalf("level %d: mask %b, want 1", d, m)
			}
		}
		levels = append(levels, append([]Vertex(nil), verts...))
	})
	if len(levels) != 2 {
		t.Fatalf("got %d levels, want 2 (maxHops)", len(levels))
	}
	if got := levels[0]; !reflect.DeepEqual(got, []Vertex{0, 2, 4, 9}) {
		t.Errorf("1-hop of u3 = %v, want [0 2 4 9]", got)
	}
	if got := levels[1]; !reflect.DeepEqual(got, []Vertex{1, 6, 8, 10, 11}) {
		t.Errorf("2-hop of u3 = %v, want [1 6 8 10 11]", got)
	}
	tr := NewTraverser(g.NumVertices())
	if d := tr.Distance(g, 3, 5, -1); d != 3 {
		t.Errorf("dist(u3,u5) = %d, want 3", d)
	}
}

func TestAllDistancesAndEccentricity(t *testing.T) {
	g := lineGraph(5)
	tr := NewTraverser(5)
	d := tr.AllDistances(g, 0, nil)
	want := []int32{0, 1, 2, 3, 4}
	if !reflect.DeepEqual(d, want) {
		t.Fatalf("AllDistances = %v, want %v", d, want)
	}
	if ecc := tr.Eccentricity(g, 0); ecc != 4 {
		t.Errorf("Eccentricity(0) = %d, want 4", ecc)
	}
	if ecc := tr.Eccentricity(g, 2); ecc != 2 {
		t.Errorf("Eccentricity(2) = %d, want 2", ecc)
	}
}

func TestTraverserReuseIsClean(t *testing.T) {
	// Two walks with the same Traverser must not leak state.
	g := lineGraph(8)
	tr := NewTraverser(8)
	first := tr.AllDistances(g, 0, nil)
	second := tr.AllDistances(g, 0, nil)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("repeat walk differs: %v vs %v", first, second)
	}
}

func TestTraverserStampWrap(t *testing.T) {
	// The walk that wraps the stamp counter, and the ones after it, must
	// see a clean visited set.
	g := lineGraph(4)
	tr := NewTraverser(4)
	tr.cur = math.MaxUint32
	for walk := 0; walk < 3; walk++ {
		if got := tr.AllDistances(g, 0, nil); !reflect.DeepEqual(got, []int32{0, 1, 2, 3}) {
			t.Fatalf("walk %d (stamp %d): distances %v, want [0 1 2 3]", walk, tr.cur, got)
		}
	}
	if !tr.Within(g, 0, 1, 1) {
		t.Fatal("adjacent pair not within 1 after the stamp wrapped")
	}
}

func TestMutableAddRemove(t *testing.T) {
	m := NewMutable(4)
	if !m.AddEdge(0, 1) {
		t.Fatal("AddEdge(0,1) = false")
	}
	if m.AddEdge(0, 1) || m.AddEdge(1, 0) {
		t.Error("duplicate AddEdge returned true")
	}
	if m.AddEdge(2, 2) {
		t.Error("self-loop AddEdge returned true")
	}
	if m.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", m.NumEdges())
	}
	if !m.HasEdge(1, 0) {
		t.Error("edge not symmetric")
	}
	if !m.RemoveEdge(1, 0) {
		t.Fatal("RemoveEdge(1,0) = false")
	}
	if m.RemoveEdge(0, 1) {
		t.Error("double RemoveEdge returned true")
	}
	if m.NumEdges() != 0 {
		t.Errorf("NumEdges = %d, want 0", m.NumEdges())
	}
}

func TestMutableFreezeRoundTrip(t *testing.T) {
	g := paperGraph()
	m := MutableFrom(g)
	if m.NumEdges() != g.NumEdges() {
		t.Fatalf("MutableFrom edges = %d, want %d", m.NumEdges(), g.NumEdges())
	}
	g2 := m.Freeze()
	if g2.NumEdges() != g.NumEdges() || g2.NumVertices() != g.NumVertices() {
		t.Fatal("Freeze changed graph size")
	}
	for v := 0; v < g.NumVertices(); v++ {
		if !reflect.DeepEqual(g.Neighbors(Vertex(v)), g2.Neighbors(Vertex(v))) {
			t.Fatalf("neighbors of %d differ", v)
		}
	}
}

func TestComponents(t *testing.T) {
	g := FromEdges(7, [][2]Vertex{{0, 1}, {1, 2}, {3, 4}, {5, 6}})
	labels, count := Components(g)
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	same := func(a, b Vertex) bool { return labels[a] == labels[b] }
	if !same(0, 2) || !same(3, 4) || !same(5, 6) {
		t.Error("expected components broken apart")
	}
	if same(0, 3) || same(4, 5) {
		t.Error("distinct components merged")
	}
}

func TestHopHistogram(t *testing.T) {
	g := lineGraph(5)
	hist := HopHistogram(g, 5)
	// From all 5 sources: distance-1 pairs counted directionally = 8.
	if hist[1] != 8 {
		t.Errorf("hist[1] = %d, want 8", hist[1])
	}
	if hist[4] != 2 {
		t.Errorf("hist[4] = %d, want 2", hist[4])
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	m := NewMutable(3)
	m.AddEdge(0, 1)
	m.adj[0] = append(m.adj[0], 0) // self loop, breaks sortedness too
	if err := Validate(m); err == nil {
		t.Fatal("Validate accepted corrupt graph")
	}
	m2 := NewMutable(3)
	m2.adj[0] = []Vertex{1} // asymmetric
	if err := Validate(m2); err == nil {
		t.Fatal("Validate accepted asymmetric graph")
	}
}

// randomGraph builds a random graph and its reference adjacency matrix.
func randomGraph(r *rand.Rand, n int, prob float64) (*Graph, [][]bool) {
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < prob {
				b.AddEdge(Vertex(i), Vertex(j))
				adj[i][j] = true
				adj[j][i] = true
			}
		}
	}
	return b.Build(), adj
}

func bfsReference(adj [][]bool, src int) []int {
	n := len(adj)
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for v := 0; v < n; v++ {
			if adj[u][v] && dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

func TestQuickBFSMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(30)
		g, adj := randomGraph(r, n, 0.15)
		tr := NewTraverser(n)
		src := Vertex(r.Intn(n))
		want := bfsReference(adj, int(src))
		got := tr.AllDistances(g, src, nil)
		for i := range want {
			if int(got[i]) != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMutableMatchesRebuild(t *testing.T) {
	// A Mutable graph after random add/remove operations must equal a
	// graph built from scratch with the surviving edge set.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(20)
		m := NewMutable(n)
		alive := map[[2]Vertex]bool{}
		for op := 0; op < 80; op++ {
			u, v := Vertex(r.Intn(n)), Vertex(r.Intn(n))
			if u > v {
				u, v = v, u
			}
			if u == v {
				continue
			}
			if r.Intn(2) == 0 {
				m.AddEdge(u, v)
				alive[[2]Vertex{u, v}] = true
			} else {
				m.RemoveEdge(u, v)
				delete(alive, [2]Vertex{u, v})
			}
		}
		b := NewBuilder(n)
		for e := range alive {
			b.AddEdge(e[0], e[1])
		}
		want := b.Build()
		got := m.Freeze()
		if got.NumEdges() != want.NumEdges() {
			return false
		}
		for v := 0; v < n; v++ {
			if !reflect.DeepEqual(got.Neighbors(Vertex(v)), want.Neighbors(Vertex(v))) {
				return false
			}
		}
		return Validate(m) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
