package core

import (
	"errors"
	"testing"

	"ktg/internal/graph"
	"ktg/internal/index"
	"ktg/internal/keywords"
)

// Failure-injection and hostile-input tests: the search must degrade
// gracefully, never panic, and never fabricate groups.

func TestSearchPLargerThanCandidatePool(t *testing.T) {
	g := fixtureGraph()
	attrs := fixtureAttrs()
	// Only u10 carries QP: searching for a group of 5 QP-holders must
	// come back empty, not error.
	qp, _ := attrs.Vocabulary().Lookup("QP")
	q := Query{Keywords: []keywords.ID{qp}, P: 5, K: 1, N: 2}
	for _, run := range []func() (*Result, error){
		func() (*Result, error) { return Search(g, attrs, q, Options{}) },
		func() (*Result, error) { return BruteForce(g, attrs, q, Options{}) },
		func() (*Result, error) { return Greedy(g, attrs, q, GreedyOptions{}) },
	} {
		r, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Groups) != 0 {
			t.Fatalf("fabricated groups: %+v", r.Groups)
		}
	}
}

// TestSearchRejectsOutOfRangeQueryVertex: every entry point that runs
// the branch-and-bound reports a query vertex past the end of the graph
// as an error, under the BFS oracle and an index alike.
func TestSearchRejectsOutOfRangeQueryVertex(t *testing.T) {
	g := fixtureGraph()
	attrs := fixtureAttrs()
	q := Query{Keywords: fixtureQuery(t, attrs), P: 2, K: 1, N: 1}
	nlrnl, err := index.BuildNLRNL(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, oracle := range []index.Oracle{nil, nlrnl} {
		opts := Options{Oracle: oracle, QueryVertices: []graph.Vertex{0, graph.Vertex(g.NumVertices())}}
		if _, err := Search(g, attrs, q, opts); err == nil {
			t.Errorf("oracle %v: Search accepted an out-of-range query vertex", oracle)
		}
		if _, err := SearchPartial(g, attrs, q, opts, CandidateSlice{Index: 1, Count: 2}); err == nil {
			t.Errorf("oracle %v: SearchPartial accepted an out-of-range query vertex", oracle)
		}
		if _, err := SearchDiverse(g, attrs, q, DiverseOptions{Options: opts, Gamma: 0.5}); err == nil {
			t.Errorf("oracle %v: SearchDiverse accepted an out-of-range query vertex", oracle)
		}
	}
}

func TestSearchUnknownQueryKeywords(t *testing.T) {
	g := fixtureGraph()
	attrs := fixtureAttrs()
	// Keyword ids far outside the vocabulary: nobody covers them.
	q := Query{Keywords: []keywords.ID{9999, 10000}, P: 2, K: 1, N: 1}
	r, err := Search(g, attrs, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Groups) != 0 {
		t.Fatal("groups found for keywords nobody carries")
	}
}

func TestSearchMixedKnownAndUnknownKeywords(t *testing.T) {
	g := fixtureGraph()
	attrs := fixtureAttrs()
	sn, _ := attrs.Vocabulary().Lookup("SN")
	// W_Q = {SN, unknown}: width 2, max achievable coverage 1.
	q := Query{Keywords: []keywords.ID{sn, 9999}, P: 2, K: 1, N: 1}
	r, err := Search(g, attrs, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Groups) == 0 {
		t.Fatal("no groups despite SN carriers")
	}
	if r.QueryWidth != 2 {
		t.Errorf("QueryWidth = %d, want 2", r.QueryWidth)
	}
	if r.Best() != 1 {
		t.Errorf("Best = %d, want 1 (unknown keyword uncoverable)", r.Best())
	}
}

func TestSearchOnEdgelessGraph(t *testing.T) {
	g := graph.FromEdges(5, nil)
	attrs := keywords.NewAttributes(5, nil)
	for v := 0; v < 5; v++ {
		attrs.Assign(graph.Vertex(v), "x")
	}
	id, _ := attrs.Vocabulary().Lookup("x")
	// Every pair is disconnected, so any k is satisfied.
	q := Query{Keywords: []keywords.ID{id}, P: 3, K: 4, N: 2}
	r, err := Search(g, attrs, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Groups) != 2 {
		t.Fatalf("got %d groups, want 2", len(r.Groups))
	}
}

func TestSearchSingleVertexGraph(t *testing.T) {
	g := graph.FromEdges(1, nil)
	attrs := keywords.NewAttributes(1, nil)
	attrs.Assign(0, "only")
	id, _ := attrs.Vocabulary().Lookup("only")
	q := Query{Keywords: []keywords.ID{id}, P: 1, K: 3, N: 5}
	r, err := Search(g, attrs, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Groups) != 1 || r.Groups[0].Members[0] != 0 {
		t.Fatalf("groups = %+v", r.Groups)
	}
}

func TestDiverseBudgetPropagates(t *testing.T) {
	g := fixtureGraph()
	attrs := fixtureAttrs()
	q := Query{Keywords: fixtureQuery(t, attrs), P: 3, K: 1, N: 3}
	dr, err := SearchDiverse(g, attrs, q, DiverseOptions{
		Options: Options{MaxNodes: 2},
		Gamma:   0.5,
	})
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want budget exhaustion", err)
	}
	if dr == nil {
		t.Fatal("partial diverse result missing")
	}
}

func TestExcludeEveryCandidate(t *testing.T) {
	g := fixtureGraph()
	attrs := fixtureAttrs()
	q := Query{Keywords: fixtureQuery(t, attrs), P: 2, K: 1, N: 1}
	var all []graph.Vertex
	for v := 0; v < 12; v++ {
		all = append(all, graph.Vertex(v))
	}
	r, err := Search(g, attrs, q, Options{ExcludeVertices: all})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Groups) != 0 {
		t.Fatal("groups found with every vertex excluded")
	}
}

func TestExcludeOutOfRangeVerticesIgnored(t *testing.T) {
	g := fixtureGraph()
	attrs := fixtureAttrs()
	q := Query{Keywords: fixtureQuery(t, attrs), P: 3, K: 1, N: 1}
	r, err := Search(g, attrs, q, Options{ExcludeVertices: []graph.Vertex{500, 1000}})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Groups) == 0 {
		t.Fatal("out-of-range exclusions broke the search")
	}
}

func TestTopNThresholdSemantics(t *testing.T) {
	h := newTopN(2)
	if h.Threshold() != -1 {
		t.Fatalf("empty threshold = %d, want -1", h.Threshold())
	}
	h.Offer([]graph.Vertex{1}, 3)
	if h.Threshold() != -1 {
		t.Fatal("threshold set before heap full")
	}
	h.Offer([]graph.Vertex{2}, 5)
	if h.Threshold() != 3 {
		t.Fatalf("threshold = %d, want 3", h.Threshold())
	}
	// Equal coverage must not displace.
	if h.Offer([]graph.Vertex{3}, 3) {
		t.Fatal("tie displaced an existing group")
	}
	// Better coverage must displace the minimum.
	if !h.Offer([]graph.Vertex{4}, 4) {
		t.Fatal("improvement rejected")
	}
	gs := h.Groups()
	if gs[0].Coverage != 5 || gs[1].Coverage != 4 {
		t.Fatalf("groups = %+v", gs)
	}
}
