package index

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"ktg/internal/graph"
)

// fixture returns the 12-vertex paper-style graph used across packages.
func fixture() *graph.Graph {
	return graph.FromEdges(12, [][2]graph.Vertex{
		{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 9}, {0, 11},
		{2, 3}, {3, 4}, {3, 9},
		{4, 6}, {4, 8}, {5, 6}, {6, 7}, {6, 9}, {7, 8},
		{9, 10}, {10, 11},
	})
}

func randomTopology(r *rand.Rand) *graph.Graph {
	n := 2 + r.Intn(40)
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < 0.12 {
				b.AddEdge(graph.Vertex(i), graph.Vertex(j))
			}
		}
	}
	return b.Build()
}

// checkOracleExact verifies o.Within against BFS ground truth for every
// pair and k in [0, kMax].
func checkOracleExact(t *testing.T, g *graph.Graph, o Oracle, kMax int) {
	t.Helper()
	n := g.NumVertices()
	tr := graph.NewTraverser(n)
	dist := make([]int32, n)
	for u := 0; u < n; u++ {
		tr.AllDistances(g, graph.Vertex(u), dist)
		for v := 0; v < n; v++ {
			d := dist[v]
			for k := 0; k <= kMax; k++ {
				want := d >= 0 && int(d) <= k
				if got := o.Within(graph.Vertex(u), graph.Vertex(v), k); got != want {
					t.Fatalf("%s.Within(%d,%d,%d) = %v, want %v (dist=%d)",
						o.Name(), u, v, k, got, want, d)
				}
			}
		}
	}
}

func TestBFSOracle(t *testing.T) {
	g := fixture()
	checkOracleExact(t, g, NewBFSOracle(g), 8)
}

func TestNLWithinFixture(t *testing.T) {
	g := fixture()
	for h := 1; h <= 5; h++ {
		nl, err := BuildNL(g, NLOptions{H: h})
		if err != nil {
			t.Fatal(err)
		}
		checkOracleExact(t, g, nl, 8)
	}
}

func TestNLAutoH(t *testing.T) {
	g := fixture()
	nl, err := BuildNL(g, NLOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if nl.H() < 1 {
		t.Fatalf("auto h = %d, want >= 1", nl.H())
	}
	checkOracleExact(t, g, nl, 8)
}

func TestBuildNLRejectsNegativeH(t *testing.T) {
	if _, err := BuildNL(fixture(), NLOptions{H: -1}); err == nil {
		t.Fatal("negative h accepted")
	}
}

func TestPeakLevel(t *testing.T) {
	if got := peakLevel([]int64{0, 5, 9, 9, 2}); got != 2 {
		t.Errorf("peakLevel = %d, want 2 (smallest of the tied peaks)", got)
	}
	if got := peakLevel([]int64{0}); got != 1 {
		t.Errorf("peakLevel of empty histogram = %d, want 1", got)
	}
}

func TestNLRNLWithinFixture(t *testing.T) {
	g := fixture()
	x, err := BuildNLRNL(g)
	if err != nil {
		t.Fatal(err)
	}
	checkOracleExact(t, g, x, 8)
}

func TestNLRNLDistanceFixture(t *testing.T) {
	g := fixture()
	x, err := BuildNLRNL(g)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	tr := graph.NewTraverser(n)
	dist := make([]int32, n)
	for u := 0; u < n; u++ {
		tr.AllDistances(g, graph.Vertex(u), dist)
		for v := 0; v < n; v++ {
			if got := x.Distance(graph.Vertex(u), graph.Vertex(v)); got != int(dist[v]) {
				t.Fatalf("Distance(%d,%d) = %d, want %d", u, v, got, dist[v])
			}
		}
	}
}

func TestOraclesOnDisconnectedGraph(t *testing.T) {
	g := graph.FromEdges(6, [][2]graph.Vertex{{0, 1}, {1, 2}, {4, 5}})
	nl, err := BuildNL(g, NLOptions{H: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkOracleExact(t, g, nl, 6)
	x, err := BuildNLRNL(g)
	if err != nil {
		t.Fatal(err)
	}
	checkOracleExact(t, g, x, 6)
	if x.Distance(0, 4) != -1 {
		t.Error("Distance across components should be -1")
	}
	if x.Distance(3, 3) != 0 {
		t.Error("Distance(v,v) should be 0")
	}
}

func TestOraclesOnEdgelessGraph(t *testing.T) {
	g := graph.FromEdges(4, nil)
	nl, err := BuildNL(g, NLOptions{H: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkOracleExact(t, g, nl, 3)
	x, err := BuildNLRNL(g)
	if err != nil {
		t.Fatal(err)
	}
	checkOracleExact(t, g, x, 3)
}

func TestQuickNLMatchesBFS(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomTopology(r)
		h := 1 + r.Intn(4)
		nl, err := BuildNL(g, NLOptions{H: h})
		if err != nil {
			return false
		}
		return oracleAgreesWithBFS(g, nl, 7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickNLRNLMatchesBFS(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomTopology(r)
		x, err := BuildNLRNL(g)
		if err != nil {
			return false
		}
		return oracleAgreesWithBFS(g, x, 7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func oracleAgreesWithBFS(g *graph.Graph, o Oracle, kMax int) bool {
	n := g.NumVertices()
	tr := graph.NewTraverser(n)
	dist := make([]int32, n)
	for u := 0; u < n; u++ {
		tr.AllDistances(g, graph.Vertex(u), dist)
		for v := 0; v < n; v++ {
			for k := 0; k <= kMax; k++ {
				want := dist[v] >= 0 && int(dist[v]) <= k
				if o.Within(graph.Vertex(u), graph.Vertex(v), k) != want {
					return false
				}
			}
		}
	}
	return true
}

func TestNLRNLInsertEdge(t *testing.T) {
	g := fixture()
	x, err := BuildNLRNL(g)
	if err != nil {
		t.Fatal(err)
	}
	if !x.InsertEdge(5, 11) {
		t.Fatal("InsertEdge(5,11) = false")
	}
	if x.InsertEdge(5, 11) {
		t.Error("duplicate InsertEdge returned true")
	}
	if x.InsertEdge(3, 3) {
		t.Error("self-loop InsertEdge returned true")
	}
	m := graph.MutableFrom(g)
	m.AddEdge(5, 11)
	checkOracleExact(t, m.Freeze(), x, 8)
}

func TestNLRNLRemoveEdge(t *testing.T) {
	g := fixture()
	x, err := BuildNLRNL(g)
	if err != nil {
		t.Fatal(err)
	}
	if !x.RemoveEdge(0, 9) {
		t.Fatal("RemoveEdge(0,9) = false")
	}
	if x.RemoveEdge(0, 9) {
		t.Error("double RemoveEdge returned true")
	}
	m := graph.MutableFrom(g)
	m.RemoveEdge(0, 9)
	checkOracleExact(t, m.Freeze(), x, 8)
}

func TestNLRNLRemoveBridgeSplitsComponents(t *testing.T) {
	g := graph.FromEdges(6, [][2]graph.Vertex{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}})
	x, err := BuildNLRNL(g)
	if err != nil {
		t.Fatal(err)
	}
	if !x.RemoveEdge(2, 3) {
		t.Fatal("RemoveEdge(2,3) = false")
	}
	if x.Within(0, 5, 10) {
		t.Error("vertices across the cut still within distance 10")
	}
	if !x.Within(0, 2, 2) {
		t.Error("vertices on the same side lost connectivity")
	}
}

func TestQuickNLRNLUpdatesMatchRebuild(t *testing.T) {
	// After a random sequence of edge insertions and deletions the
	// incrementally-maintained index must behave exactly like the BFS
	// ground truth on the final graph, hold that graph itself, and hold
	// the same lists as a fresh build of it.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomTopology(r)
		x, err := BuildNLRNL(g)
		if err != nil {
			return false
		}
		m := graph.MutableFrom(g)
		n := g.NumVertices()
		for op := 0; op < 12; op++ {
			u := graph.Vertex(r.Intn(n))
			v := graph.Vertex(r.Intn(n))
			if r.Intn(2) == 0 {
				x.InsertEdge(u, v)
				m.AddEdge(u, v)
			} else {
				x.RemoveEdge(u, v)
				m.RemoveEdge(u, v)
			}
		}
		final := m.Freeze()
		fresh, err := BuildNLRNL(final)
		if err != nil {
			return false
		}
		if d := nlrnlDiff(x, fresh); d != "" {
			t.Logf("seed %d: repaired index differs from a rebuild at %s", seed, d)
			return false
		}
		return oracleAgreesWithBFS(final, x, 6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// edgeOp is one edge change of a test batch.
type edgeOp struct {
	insert bool
	u, v   graph.Vertex
}

// batchOps draws one batch for g: random ops, an insert and a later
// delete of one absent edge, a repeat of that insert and a self-loop
// (both ignored), an edge that merges two components, and the deletion
// of every edge of one vertex, which splits its component.
func batchOps(r *rand.Rand, g *graph.Mutable) []edgeOp {
	n := g.NumVertices()
	rv := func() graph.Vertex { return graph.Vertex(r.Intn(n)) }
	var ops []edgeOp
	for i := 0; i < 4; i++ {
		ops = append(ops, edgeOp{r.Intn(2) == 0, rv(), rv()})
	}
	if u, v := rv(), rv(); u != v && !g.HasEdge(u, v) {
		ops = append(ops, edgeOp{true, u, v}, edgeOp{true, v, u}, edgeOp{false, u, v})
	}
	ops = append(ops, edgeOp{false, 3 % graph.Vertex(n), 3 % graph.Vertex(n)})
	comp, _ := graph.Components(g)
	if u, v := rv(), rv(); comp[u] != comp[v] {
		ops = append(ops, edgeOp{true, u, v})
	}
	a := rv()
	for _, b := range g.Neighbors(a) {
		ops = append(ops, edgeOp{false, a, b})
	}
	return ops
}

// TestQuickNLRNLBatchRepair marks random batches op by op and flushes
// each once: every op must report exactly EdgeAffected on the graph
// before it, and after the flush the index must equal a fresh build of
// the final graph.
func TestQuickNLRNLBatchRepair(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomComponents(r, 20+r.Intn(120), 1+r.Intn(3), 0.03+0.1*r.Float64())
		x, err := BuildNLRNL(g)
		if err != nil {
			t.Fatal(err)
		}
		m := graph.MutableFrom(g)
		for batch := 0; batch < 3; batch++ {
			for _, op := range batchOps(r, m) {
				changes := op.u != op.v && m.HasEdge(op.u, op.v) != op.insert
				var want []graph.Vertex
				if changes {
					want = EdgeAffected(m, op.insert, op.u, op.v)
					if op.insert {
						m.AddEdge(op.u, op.v)
					} else {
						m.RemoveEdge(op.u, op.v)
					}
				}
				ok, got := x.ApplyEdge(op.insert, op.u, op.v)
				if ok != changes || !slices.Equal(got, want) {
					t.Logf("seed %d: %+v reported (%v, %v), want (%v, %v)", seed, op, ok, got, changes, want)
					return false
				}
			}
			x.Flush()
			fresh, err := BuildNLRNL(m.Freeze())
			if err != nil {
				t.Fatal(err)
			}
			if d := nlrnlDiff(x, fresh); d != "" {
				t.Logf("seed %d batch %d: flushed index differs from a rebuild at %s", seed, batch, d)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestNLRNLCloneKeepsMarks takes a Clone between the marks and the
// flush: the clone and the original each flush to a fresh build of the
// changed graph, whichever flushes first.
func TestNLRNLCloneKeepsMarks(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	g := randomComponents(r, 150, 2, 0.04)
	x, err := BuildNLRNL(g)
	if err != nil {
		t.Fatal(err)
	}
	m := graph.MutableFrom(g)
	for _, op := range batchOps(r, m) {
		x.ApplyEdge(op.insert, op.u, op.v)
		ApplyEdge(m, op.insert, op.u, op.v)
	}
	y := x.Clone()
	fresh, err := BuildNLRNL(m.Freeze())
	if err != nil {
		t.Fatal(err)
	}
	x.Flush()
	requireSameNLRNL(t, "original", x, fresh)
	y.Flush()
	requireSameNLRNL(t, "clone", y, fresh)
}

func TestSpaceAccounting(t *testing.T) {
	g := fixture()
	nl, err := BuildNL(g, NLOptions{H: 3})
	if err != nil {
		t.Fatal(err)
	}
	x, err := BuildNLRNL(g)
	if err != nil {
		t.Fatal(err)
	}
	if nl.Entries() <= 0 || x.Entries() <= 0 {
		t.Fatal("indexes report no entries")
	}
	if nl.SpaceBytes() <= 0 || x.SpaceBytes() <= 0 {
		t.Fatal("indexes report no space")
	}
	// NL stores every pair twice (both directions) and includes the
	// most-populated level; NLRNL stores each pair at most once and
	// skips the most-populated level. On any connected-ish graph NL
	// must therefore be strictly larger.
	if nl.Entries() <= x.Entries() {
		t.Errorf("NL entries (%d) should exceed NLRNL entries (%d)", nl.Entries(), x.Entries())
	}
}

func TestNLRNLCAndEntriesSmall(t *testing.T) {
	// Path 0-1-2-3: from vertex 0, counts per level over ids>0 are
	// {1:1, 2:1, 3:1}; ties resolve to the smallest level, so c(0)=1 and
	// the reverse lists hold distances 2 and 3.
	g := graph.FromEdges(4, [][2]graph.Vertex{{0, 1}, {1, 2}, {2, 3}})
	x, err := BuildNLRNL(g)
	if err != nil {
		t.Fatal(err)
	}
	if x.C(0) != 1 {
		t.Errorf("C(0) = %d, want 1", x.C(0))
	}
	// Vertex 0 stores {2 (dist 2), 3 (dist 3)} in reverse lists; vertex 1
	// stores {3 (dist 2)}; vertex 2 stores nothing beyond its implicit
	// level; vertex 3 stores nothing (no greater ids).
	if got := x.Entries(); got != 3 {
		t.Errorf("Entries = %d, want 3", got)
	}
}

func BenchmarkOracleWithin(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	builder := graph.NewBuilder(2000)
	for i := 1; i < 2000; i++ {
		builder.AddEdge(graph.Vertex(i), graph.Vertex(r.Intn(i)))
		builder.AddEdge(graph.Vertex(i), graph.Vertex(r.Intn(i)))
	}
	g := builder.Build()
	nl, _ := BuildNL(g, NLOptions{})
	x, _ := BuildNLRNL(g)
	oracles := []Oracle{NewBFSOracle(g), nl, x}
	for _, o := range oracles {
		b.Run(o.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				u := graph.Vertex(i % 2000)
				v := graph.Vertex((i * 7) % 2000)
				o.Within(u, v, 2)
			}
		})
	}
}
