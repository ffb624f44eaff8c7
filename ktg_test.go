package ktg_test

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"ktg"
)

// reviewerNetwork builds the Figure 1 reviewer-selection network through
// the public API.
func reviewerNetwork(t *testing.T) *ktg.Network {
	t.Helper()
	b := ktg.NewBuilder(12)
	edges := [][2]ktg.Vertex{
		{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 9}, {0, 11},
		{2, 3}, {3, 4}, {3, 9},
		{4, 6}, {4, 8}, {5, 6}, {6, 7}, {6, 9}, {7, 8},
		{9, 10}, {10, 11},
	}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	b.SetKeywords(0, "SN", "GD", "DQ")
	b.SetKeywords(1, "SN", "DQ")
	b.SetKeywords(2, "GD")
	b.SetKeywords(3, "SN")
	b.SetKeywords(4, "GQ")
	b.SetKeywords(5, "GD")
	b.SetKeywords(6, "SN", "GQ")
	b.SetKeywords(7, "DQ")
	b.SetKeywords(8, "XX")
	b.SetKeywords(10, "QP", "SN")
	b.SetKeywords(11, "DQ", "GD")
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

var reviewerQuery = ktg.Query{
	Keywords:  []string{"SN", "QP", "DQ", "GQ", "GD"},
	GroupSize: 3,
	Tenuity:   1,
	TopN:      2,
}

func TestNetworkBasics(t *testing.T) {
	n := reviewerNetwork(t)
	if n.NumVertices() != 12 {
		t.Fatalf("NumVertices = %d, want 12", n.NumVertices())
	}
	if n.NumEdges() != 17 {
		t.Fatalf("NumEdges = %d, want 17", n.NumEdges())
	}
	if got := n.Keywords(10); !reflect.DeepEqual(got, []string{"QP", "SN"}) {
		t.Errorf("Keywords(10) = %v", got)
	}
	if n.Degree(0) != 6 {
		t.Errorf("Degree(0) = %d, want 6", n.Degree(0))
	}
	if len(n.Keywords(9)) != 0 {
		t.Errorf("vertex 9 should have no keywords, got %v", n.Keywords(9))
	}
}

func TestSearchEndToEnd(t *testing.T) {
	n := reviewerNetwork(t)
	for _, alg := range []ktg.Algorithm{ktg.AlgVKCDeg, ktg.AlgVKC, ktg.AlgQKC, ktg.AlgBruteForce} {
		res, err := n.Search(reviewerQuery, ktg.SearchOptions{Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if len(res.Groups) != 2 {
			t.Fatalf("%v: got %d groups, want 2", alg, len(res.Groups))
		}
		best := res.Groups[0]
		if best.QKC != 1.0 {
			t.Errorf("%v: best QKC = %v, want 1.0", alg, best.QKC)
		}
		if len(best.Covered) != 5 {
			t.Errorf("%v: Covered = %v, want all 5 query keywords", alg, best.Covered)
		}
		if len(best.Members) != 3 {
			t.Errorf("%v: got %d members", alg, len(best.Members))
		}
	}
}

func TestSearchWithIndexes(t *testing.T) {
	n := reviewerNetwork(t)
	nl, err := n.BuildNL(0)
	if err != nil {
		t.Fatal(err)
	}
	nlrnl, err := n.BuildNLRNL()
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range []ktg.DistanceIndex{n.NewBFSIndex(), nl, nlrnl} {
		res, err := n.Search(reviewerQuery, ktg.SearchOptions{Index: idx})
		if err != nil {
			t.Fatalf("%s: %v", idx.Name(), err)
		}
		if res.Groups[0].QKC != 1.0 {
			t.Errorf("%s: best QKC = %v", idx.Name(), res.Groups[0].QKC)
		}
		if res.Stats.DistanceChecks == 0 {
			t.Errorf("%s: no distance checks recorded", idx.Name())
		}
	}
}

func TestDynamicIndexUpdates(t *testing.T) {
	n := reviewerNetwork(t)
	idx, err := n.BuildNLRNL()
	if err != nil {
		t.Fatal(err)
	}
	if !idx.Within(6, 7, 1) {
		t.Fatal("u6 and u7 start adjacent")
	}
	if !idx.RemoveEdge(6, 7) {
		t.Fatal("RemoveEdge(6,7) failed")
	}
	if idx.Within(6, 7, 1) {
		t.Error("u6-u7 still within 1 hop after removal")
	}
	if !idx.InsertEdge(6, 7) {
		t.Fatal("InsertEdge(6,7) failed")
	}
	if !idx.Within(6, 7, 1) {
		t.Error("u6-u7 not adjacent after reinsertion")
	}
}

func TestNetworkIORoundTrip(t *testing.T) {
	n := reviewerNetwork(t)
	var edges, attrs bytes.Buffer
	if err := n.SaveEdgeList(&edges); err != nil {
		t.Fatal(err)
	}
	if err := n.SaveAttributes(&attrs); err != nil {
		t.Fatal(err)
	}
	n2, err := ktg.LoadNetwork(&edges, &attrs)
	if err != nil {
		t.Fatal(err)
	}
	if n2.NumVertices() != n.NumVertices() || n2.NumEdges() != n.NumEdges() {
		t.Fatal("round trip changed network size")
	}
	res, err := n2.Search(reviewerQuery, ktg.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups[0].QKC != 1.0 {
		t.Errorf("reloaded network best QKC = %v", res.Groups[0].QKC)
	}
}

func TestSearchDiverseEndToEnd(t *testing.T) {
	n := reviewerNetwork(t)
	dr, err := n.SearchDiverse(reviewerQuery, ktg.DiverseOptions{Gamma: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(dr.Groups) == 0 {
		t.Fatal("no diverse groups")
	}
	if dr.Groups[0].QKC != 1.0 {
		t.Errorf("first diverse group QKC = %v, want 1.0", dr.Groups[0].QKC)
	}
	seen := map[ktg.Vertex]bool{}
	for _, g := range dr.Groups {
		for _, v := range g.Members {
			if seen[v] {
				t.Fatal("diverse groups overlap")
			}
			seen[v] = true
		}
	}
	if len(dr.Groups) > 1 && dr.Diversity != 1.0 {
		t.Errorf("Diversity = %v, want 1.0", dr.Diversity)
	}
}

func TestTAGQBaselineEndToEnd(t *testing.T) {
	n := reviewerNetwork(t)
	res, err := n.TAGQBaseline(reviewerQuery, 0.34, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) == 0 {
		t.Fatal("TAGQ found nothing")
	}
}

func TestBudgetExhaustion(t *testing.T) {
	n := reviewerNetwork(t)
	for _, alg := range []ktg.Algorithm{ktg.AlgVKCDeg, ktg.AlgBruteForce} {
		res, err := n.Search(reviewerQuery, ktg.SearchOptions{Algorithm: alg, MaxNodes: 2})
		if !errors.Is(err, ktg.ErrBudgetExhausted) {
			t.Fatalf("%v: err = %v, want ErrBudgetExhausted", alg, err)
		}
		if res == nil || res.Stats.Nodes > 3 {
			t.Fatalf("%v: result %+v, want the groups found within 2 nodes", alg, res)
		}
	}
}

func TestGeneratePresetAndQuery(t *testing.T) {
	n, err := ktg.GeneratePreset("brightkite", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if n.NumVertices() < 1000 {
		t.Fatalf("preset too small: %d", n.NumVertices())
	}
	kws := n.PopularKeywords(6)
	if len(kws) != 6 {
		t.Fatalf("PopularKeywords returned %d names", len(kws))
	}
	res, err := n.Search(ktg.Query{
		Keywords:  kws,
		GroupSize: 3,
		Tenuity:   1,
		TopN:      3,
	}, ktg.SearchOptions{MaxNodes: 200000})
	if err != nil && !errors.Is(err, ktg.ErrBudgetExhausted) {
		t.Fatal(err)
	}
	if len(res.Groups) == 0 {
		t.Fatal("no groups on generated preset")
	}
}

func TestPresetsListed(t *testing.T) {
	ps := ktg.Presets()
	if len(ps) != 6 {
		t.Fatalf("Presets = %v, want 6 names", ps)
	}
	if _, err := ktg.GeneratePreset("unknown", 0.5); err == nil {
		t.Error("unknown preset accepted")
	}
}

func TestQueryVerticesExtension(t *testing.T) {
	n := reviewerNetwork(t)
	res, err := n.Search(reviewerQuery, ktg.SearchOptions{
		QueryVertices: []ktg.Vertex{9},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range res.Groups {
		for _, v := range g.Members {
			for _, banned := range []ktg.Vertex{9, 0, 3, 6, 10} {
				if v == banned {
					t.Fatalf("member %d too close to query vertex", v)
				}
			}
		}
	}
}

func TestCoveredKeywordsHelper(t *testing.T) {
	n := reviewerNetwork(t)
	got := n.CoveredKeywords(reviewerQuery, []ktg.Vertex{0, 10})
	want := []string{"DQ", "GD", "QP", "SN"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("CoveredKeywords = %v, want %v", got, want)
	}
}

func TestSearchGreedyEndToEnd(t *testing.T) {
	n := reviewerNetwork(t)
	res, err := n.SearchGreedy(reviewerQuery, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) == 0 {
		t.Fatal("greedy found nothing")
	}
	if res.Groups[0].QKC != 1.0 {
		t.Errorf("greedy best QKC = %v, want 1.0 on the fixture", res.Groups[0].QKC)
	}
	for _, g := range res.Groups {
		if len(g.Members) != reviewerQuery.GroupSize {
			t.Fatalf("greedy group size %d", len(g.Members))
		}
	}
}
