package index

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"ktg/internal/gen"
	"ktg/internal/graph"
	"ktg/internal/persist"
)

// refBuildNLRNL is the per-vertex NLRNL build the multi-source kernel
// replaced: one full BFS per vertex, lists appended and then sorted.
// The reference tests hold the kernel build to it, list for list.
func refBuildNLRNL(g graph.Topology) *NLRNL {
	n := g.NumVertices()
	x := &NLRNL{
		g:   graph.MutableFrom(g),
		c:   make([]int32, n),
		fwd: make([][][]graph.Vertex, n),
		rev: make([][][]graph.Vertex, n),
	}
	x.comp, _ = graph.Components(x.g)
	tr := graph.NewTraverser(n)
	dist := make([]int32, n)
	for a := 0; a < n; a++ {
		tr.AllDistances(x.g, graph.Vertex(a), dist)
		var counts []int64
		for b := a + 1; b < n; b++ {
			d := dist[b]
			if d <= 0 {
				continue
			}
			for int(d) >= len(counts) {
				counts = append(counts, 0)
			}
			counts[d]++
		}
		c := 1
		var best int64 = -1
		for d := 1; d < len(counts); d++ {
			if counts[d] > best {
				c, best = d, counts[d]
			}
		}
		x.c[a] = int32(c)
		fwd := make([][]graph.Vertex, c-1)
		var rev [][]graph.Vertex
		for b := a + 1; b < n; b++ {
			d := int(dist[b])
			switch {
			case d <= 0 || d == c:
			case d < c:
				fwd[d-1] = append(fwd[d-1], graph.Vertex(b))
			default:
				j := d - c - 1
				for j >= len(rev) {
					rev = append(rev, nil)
				}
				rev[j] = append(rev[j], graph.Vertex(b))
			}
		}
		for _, l := range fwd {
			refSort(l)
		}
		for _, l := range rev {
			refSort(l)
		}
		x.fwd[a], x.rev[a] = fwd, rev
	}
	return x
}

// refBuildNL is the per-vertex NL build the kernel replaced, including
// its per-source histogram for the automatic h.
func refBuildNL(g graph.Topology, h int) *NL {
	n := g.NumVertices()
	if h == 0 {
		h = peakLevel(refHopHistogram(g, 64))
	}
	nl := &NL{g: g, h: h, levels: make([][][]graph.Vertex, n)}
	nl.initScratch(n)
	tr := graph.NewTraverser(n)
	for v := 0; v < n; v++ {
		levels := make([][]graph.Vertex, h)
		tr.Walk(g, graph.Vertex(v), h, func(w graph.Vertex, d int) bool {
			levels[d-1] = append(levels[d-1], w)
			return true
		})
		for _, l := range levels {
			refSort(l)
		}
		nl.levels[v] = levels
	}
	return nl
}

func refHopHistogram(g graph.Topology, sampleSize int) []int64 {
	n := g.NumVertices()
	if sampleSize > n {
		sampleSize = n
	}
	step := n / sampleSize
	tr := graph.NewTraverser(n)
	hist := make([]int64, 1)
	for v := 0; v < n; v += step {
		tr.Walk(g, graph.Vertex(v), -1, func(_ graph.Vertex, d int) bool {
			for len(hist) <= d {
				hist = append(hist, 0)
			}
			hist[d]++
			return true
		})
	}
	return hist
}

func refSort(vs []graph.Vertex) {
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
}

// sameLists reports whether a and b hold the same lists in the same
// order; a nil list equals an empty one.
func sameLists(a, b [][][]graph.Vertex) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if len(a[i][j]) != len(b[i][j]) {
				return false
			}
			for k := range a[i][j] {
				if a[i][j][k] != b[i][j][k] {
					return false
				}
			}
		}
	}
	return true
}

// nlrnlDiff describes the first difference between two NLRNL indexes:
// the graph each one holds, then per vertex its component, c and both
// list families. It returns "" when they are the same.
func nlrnlDiff(got, want *NLRNL) string {
	if fg, fw := persist.FingerprintOf(got.g), persist.FingerprintOf(want.g); fg != fw {
		return fmt.Sprintf("graph [%v] vs [%v]", fg, fw)
	}
	if len(got.c) != len(want.c) {
		return fmt.Sprintf("%d vs %d vertices", len(got.c), len(want.c))
	}
	for a := range want.c {
		if got.comp[a] != want.comp[a] || got.c[a] != want.c[a] ||
			!sameLists(got.fwd[a:a+1], want.fwd[a:a+1]) || !sameLists(got.rev[a:a+1], want.rev[a:a+1]) {
			return fmt.Sprintf("vertex %d: comp %d vs %d, c %d vs %d, fwd %v vs %v, rev %v vs %v",
				a, got.comp[a], want.comp[a], got.c[a], want.c[a], got.fwd[a], want.fwd[a], got.rev[a], want.rev[a])
		}
	}
	return ""
}

// requireSameNLRNL fails unless got and want are the same index.
func requireSameNLRNL(t *testing.T, what string, got, want *NLRNL) {
	t.Helper()
	if d := nlrnlDiff(got, want); d != "" {
		t.Fatalf("%s: NLRNL differs first at %s", what, d)
	}
}

func pathGraph(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(graph.Vertex(v-1), graph.Vertex(v))
	}
	return b.Build()
}

// randomComponents builds an n-vertex graph of comps random pieces with
// edge probability p inside each piece, plus isolated vertices where a
// piece draws no edge.
func randomComponents(r *rand.Rand, n, comps int, p float64) *graph.Graph {
	b := graph.NewBuilder(n)
	perm := r.Perm(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if i%comps == j%comps && r.Float64() < p {
				b.AddEdge(graph.Vertex(perm[i]), graph.Vertex(perm[j]))
			}
		}
	}
	return b.Build()
}

// TestBuildMatchesReference holds the kernel builds of NLRNL and NL to
// the per-vertex reference list for list: vertex counts around the
// 64-source pass width, isolated vertices, several components, a path
// with more than 256 levels, and generated presets.
func TestBuildMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"empty", graph.FromEdges(0, nil)},
		{"isolated", graph.FromEdges(9, nil)},
		{"single-edge", graph.FromEdges(3, [][2]graph.Vertex{{0, 2}})},
		{"fixture", fixture()},
		{"path-300", pathGraph(300)},
	}
	for _, n := range []int{5, 37, 63, 64, 65, 127, 128, 129, 200} {
		for _, comps := range []int{1, 3} {
			for _, p := range []float64{0.02, 0.1, 0.3} {
				cases = append(cases, struct {
					name string
					g    *graph.Graph
				}{fmt.Sprintf("n%d-c%d-p%.2f", n, comps, p), randomComponents(r, n, comps, p)})
			}
		}
	}
	for _, preset := range []string{"brightkite", "gowalla", "twitter"} {
		ds, err := gen.GeneratePreset(preset, 0.005)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, struct {
			name string
			g    *graph.Graph
		}{preset, ds.Graph})
	}
	for _, tc := range cases {
		x, err := BuildNLRNL(tc.g)
		if err != nil {
			t.Fatal(err)
		}
		requireSameNLRNL(t, tc.name, x, refBuildNLRNL(tc.g))
		if tc.g.NumVertices() == 0 {
			continue
		}
		for _, h := range []int{0, 1, 3} {
			nl, err := BuildNL(tc.g, NLOptions{H: h})
			if err != nil {
				t.Fatal(err)
			}
			ref := refBuildNL(tc.g, h)
			if nl.H() != ref.H() || !sameLists(nl.levels, ref.levels) {
				t.Fatalf("%s: NL (h option %d, built h %d, reference h %d) levels differ", tc.name, h, nl.H(), ref.H())
			}
		}
	}
}
