package core

import (
	"errors"
	"testing"

	"ktg/internal/graph"
	"ktg/internal/index"
	"ktg/internal/keywords"
)

// fixtureGraph is the 12-vertex paper-style graph shared across packages.
func fixtureGraph() *graph.Graph {
	return graph.FromEdges(12, [][2]graph.Vertex{
		{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 9}, {0, 11},
		{2, 3}, {3, 4}, {3, 9},
		{4, 6}, {4, 8}, {5, 6}, {6, 7}, {6, 9}, {7, 8},
		{9, 10}, {10, 11},
	})
}

// fixtureAttrs mirrors the keyword table of the paper's Figure 1 example.
func fixtureAttrs() *keywords.Attributes {
	a := keywords.NewAttributes(12, nil)
	a.Assign(0, "SN", "GD", "DQ")
	a.Assign(1, "SN", "DQ")
	a.Assign(2, "GD")
	a.Assign(3, "SN")
	a.Assign(4, "GQ")
	a.Assign(5, "GD")
	a.Assign(6, "SN", "GQ")
	a.Assign(7, "DQ")
	a.Assign(8, "XX")
	a.Assign(9)
	a.Assign(10, "QP", "SN")
	a.Assign(11, "DQ", "GD")
	return a
}

func fixtureQuery(t *testing.T, a *keywords.Attributes) []keywords.ID {
	t.Helper()
	names := []string{"SN", "QP", "DQ", "GQ", "GD"}
	ids := make([]keywords.ID, len(names))
	for i, n := range names {
		id, ok := a.Vocabulary().Lookup(n)
		if !ok {
			t.Fatalf("keyword %q missing from fixture vocabulary", n)
		}
		ids[i] = id
	}
	return ids
}

// requireValidResult checks the KTG feasibility invariants of every
// returned group.
func requireValidResult(t *testing.T, g *graph.Graph, attrs *keywords.Attributes, q Query, r *Result) {
	t.Helper()
	kq, err := keywords.CompileQuery(attrs, q.Keywords)
	if err != nil {
		t.Fatal(err)
	}
	tr := graph.NewTraverser(g.NumVertices())
	if len(r.Groups) > q.N {
		t.Fatalf("returned %d groups, want <= %d", len(r.Groups), q.N)
	}
	for gi, grp := range r.Groups {
		if len(grp.Members) != q.P {
			t.Fatalf("group %d has %d members, want %d", gi, len(grp.Members), q.P)
		}
		seen := map[graph.Vertex]bool{}
		for _, v := range grp.Members {
			if seen[v] {
				t.Fatalf("group %d repeats member %d", gi, v)
			}
			seen[v] = true
			if !kq.Covers(v) {
				t.Fatalf("group %d member %d covers no query keyword", gi, v)
			}
		}
		for i := 0; i < len(grp.Members); i++ {
			for j := i + 1; j < len(grp.Members); j++ {
				u, v := grp.Members[i], grp.Members[j]
				if d := tr.Distance(g, u, v, q.K); d >= 0 {
					t.Fatalf("group %d members %d,%d at distance %d <= k=%d", gi, u, v, d, q.K)
				}
			}
		}
		if got := kq.GroupCoverageCount(grp.Members); got != grp.Coverage {
			t.Fatalf("group %d coverage reported %d, actual %d", gi, grp.Coverage, got)
		}
		if gi > 0 && grp.Coverage > r.Groups[gi-1].Coverage {
			t.Fatalf("groups not sorted by coverage: %d before %d",
				r.Groups[gi-1].Coverage, grp.Coverage)
		}
	}
}

func TestQueryValidate(t *testing.T) {
	valid := Query{Keywords: []keywords.ID{1}, P: 3, K: 1, N: 2}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
	bad := []Query{
		{P: 3, K: 1, N: 1},
		{Keywords: []keywords.ID{1}, P: 0, K: 1, N: 1},
		{Keywords: []keywords.ID{1}, P: 3, K: -1, N: 1},
		{Keywords: []keywords.ID{1}, P: 3, K: 1, N: 0},
	}
	for i, q := range bad {
		if err := q.Validate(); err == nil {
			t.Errorf("bad query %d accepted", i)
		}
	}
}

func TestSearchFixtureFindsFullCoverage(t *testing.T) {
	// With k=1 the group {u0, u6, u10} covers all five query keywords:
	// u0 {SN,GD,DQ}, u6 {SN,GQ}, u10 {QP,SN}, and all pairwise
	// distances in the fixture are 2.
	g := fixtureGraph()
	attrs := fixtureAttrs()
	q := Query{Keywords: fixtureQuery(t, attrs), P: 3, K: 1, N: 2}
	for _, ord := range []Ordering{OrderQKC, OrderVKC, OrderVKCDegree} {
		r, err := Search(g, attrs, q, Options{Ordering: ord})
		if err != nil {
			t.Fatalf("%v: %v", ord, err)
		}
		requireValidResult(t, g, attrs, q, r)
		if r.Best() != 5 {
			t.Errorf("%v: best coverage = %d, want 5", ord, r.Best())
		}
		if len(r.Groups) != 2 {
			t.Errorf("%v: got %d groups, want 2", ord, len(r.Groups))
		}
	}
}

func TestSearchMatchesBruteForceOnFixture(t *testing.T) {
	g := fixtureGraph()
	attrs := fixtureAttrs()
	for _, k := range []int{0, 1, 2, 3} {
		for _, p := range []int{1, 2, 3, 4} {
			q := Query{Keywords: fixtureQuery(t, attrs), P: p, K: k, N: 3}
			want, err := BruteForce(g, attrs, q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, ord := range []Ordering{OrderQKC, OrderVKC, OrderVKCDegree} {
				got, err := Search(g, attrs, q, Options{Ordering: ord})
				if err != nil {
					t.Fatal(err)
				}
				requireValidResult(t, g, attrs, q, got)
				requireSameCoverages(t, want, got)
			}
		}
	}
}

// requireSameCoverages compares the coverage multisets of two results —
// different algorithms may break ties differently, but the coverage
// profile of an exact top-N is unique.
func requireSameCoverages(t *testing.T, want, got *Result) {
	t.Helper()
	if len(want.Groups) != len(got.Groups) {
		t.Fatalf("group count %d, want %d", len(got.Groups), len(want.Groups))
	}
	for i := range want.Groups {
		if want.Groups[i].Coverage != got.Groups[i].Coverage {
			t.Fatalf("coverage[%d] = %d, want %d",
				i, got.Groups[i].Coverage, want.Groups[i].Coverage)
		}
	}
}

func TestSearchInfeasibleQuery(t *testing.T) {
	// k larger than the graph diameter leaves no feasible pair.
	g := fixtureGraph()
	attrs := fixtureAttrs()
	q := Query{Keywords: fixtureQuery(t, attrs), P: 3, K: 10, N: 2}
	r, err := Search(g, attrs, q, Options{Ordering: OrderVKCDegree})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Groups) != 0 {
		t.Fatalf("expected no groups, got %d", len(r.Groups))
	}
}

func TestSearchPEqualsOne(t *testing.T) {
	g := fixtureGraph()
	attrs := fixtureAttrs()
	q := Query{Keywords: fixtureQuery(t, attrs), P: 1, K: 2, N: 1}
	r, err := Search(g, attrs, q, Options{Ordering: OrderVKCDegree})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Groups) != 1 || r.Best() != 3 {
		t.Fatalf("single-member search: groups=%d best=%d, want 1 group covering 3 (u0)",
			len(r.Groups), r.Best())
	}
}

func TestSearchMismatchedAttributes(t *testing.T) {
	g := fixtureGraph()
	attrs := keywords.NewAttributes(3, nil)
	attrs.Assign(0, "x")
	id, _ := attrs.Vocabulary().Lookup("x")
	q := Query{Keywords: []keywords.ID{id}, P: 1, K: 1, N: 1}
	if _, err := Search(g, attrs, q, Options{}); err == nil {
		t.Fatal("mismatched attributes accepted")
	}
	if _, err := BruteForce(g, attrs, q, Options{}); err == nil {
		t.Fatal("BruteForce accepted mismatched attributes")
	}
}

func TestSearchBudgetExhaustion(t *testing.T) {
	g := fixtureGraph()
	attrs := fixtureAttrs()
	q := Query{Keywords: fixtureQuery(t, attrs), P: 3, K: 1, N: 2}
	r, err := Search(g, attrs, q, Options{MaxNodes: 3})
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if r == nil {
		t.Fatal("partial result missing")
	}
	if r.Stats.Nodes > 4 {
		t.Errorf("explored %d nodes despite budget 3", r.Stats.Nodes)
	}
}

func TestSearchWithAllOracles(t *testing.T) {
	g := fixtureGraph()
	attrs := fixtureAttrs()
	q := Query{Keywords: fixtureQuery(t, attrs), P: 3, K: 2, N: 3}
	want, err := BruteForce(g, attrs, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	nl, err := index.BuildNL(g, index.NLOptions{H: 2})
	if err != nil {
		t.Fatal(err)
	}
	nlrnl, err := index.BuildNLRNL(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []index.Oracle{index.NewBFSOracle(g), nl, nlrnl} {
		got, err := Search(g, attrs, q, Options{Ordering: OrderVKCDegree, Oracle: o})
		if err != nil {
			t.Fatalf("%s: %v", o.Name(), err)
		}
		requireValidResult(t, g, attrs, q, got)
		requireSameCoverages(t, want, got)
	}
}

func TestSearchPruningAblation(t *testing.T) {
	g := fixtureGraph()
	attrs := fixtureAttrs()
	q := Query{Keywords: fixtureQuery(t, attrs), P: 3, K: 1, N: 2}
	with, err := Search(g, attrs, q, Options{Ordering: OrderVKCDegree})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Search(g, attrs, q, Options{Ordering: OrderVKCDegree, DisableKeywordPruning: true})
	if err != nil {
		t.Fatal(err)
	}
	requireSameCoverages(t, with, without)
	if with.Stats.Pruned == 0 {
		t.Error("pruning never fired on the fixture")
	}
	if without.Stats.Pruned != 0 {
		t.Error("pruning fired while disabled")
	}
	if without.Stats.Nodes < with.Stats.Nodes {
		t.Errorf("pruning increased node count: %d with vs %d without",
			with.Stats.Nodes, without.Stats.Nodes)
	}
}

func TestSearchExcludeVertices(t *testing.T) {
	g := fixtureGraph()
	attrs := fixtureAttrs()
	q := Query{Keywords: fixtureQuery(t, attrs), P: 3, K: 1, N: 1}
	r, err := Search(g, attrs, q, Options{
		Ordering:        OrderVKCDegree,
		ExcludeVertices: []graph.Vertex{10}, // the only QP holder
	})
	if err != nil {
		t.Fatal(err)
	}
	requireValidResult(t, g, attrs, q, r)
	if r.Best() == 5 {
		t.Error("excluding the only QP holder should cap coverage below 5")
	}
	for _, grp := range r.Groups {
		for _, v := range grp.Members {
			if v == 10 {
				t.Fatal("excluded vertex appeared in a result group")
			}
		}
	}
}

func TestSearchQueryVertices(t *testing.T) {
	g := fixtureGraph()
	attrs := fixtureAttrs()
	q := Query{Keywords: fixtureQuery(t, attrs), P: 3, K: 1, N: 2}
	// Author u9 is adjacent to u0, u3, u6, u10: all of them (and u9)
	// must vanish from the candidate pool.
	r, err := Search(g, attrs, q, Options{
		Ordering:      OrderVKCDegree,
		QueryVertices: []graph.Vertex{9},
	})
	if err != nil {
		t.Fatal(err)
	}
	requireValidResult(t, g, attrs, q, r)
	banned := map[graph.Vertex]bool{9: true, 0: true, 3: true, 6: true, 10: true}
	for _, grp := range r.Groups {
		for _, v := range grp.Members {
			if banned[v] {
				t.Fatalf("member %d is within k of the query vertex", v)
			}
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	g := fixtureGraph()
	attrs := fixtureAttrs()
	q := Query{Keywords: fixtureQuery(t, attrs), P: 3, K: 1, N: 2}
	r, err := Search(g, attrs, q, Options{Ordering: OrderVKCDegree})
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Nodes == 0 || r.Stats.DistanceChecks == 0 || r.Stats.Feasible == 0 {
		t.Errorf("stats look unpopulated: %+v", r.Stats)
	}
}
