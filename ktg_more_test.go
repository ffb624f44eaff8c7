package ktg_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"ktg"
)

func TestNetworkString(t *testing.T) {
	n := reviewerNetwork(t)
	s := n.String()
	if !strings.Contains(s, "12 vertices") || !strings.Contains(s, "17 edges") {
		t.Errorf("String = %q", s)
	}
}

func TestNeighborsAndAverageDegree(t *testing.T) {
	n := reviewerNetwork(t)
	ns := n.Neighbors(10)
	if len(ns) != 2 || ns[0] != 9 || ns[1] != 11 {
		t.Errorf("Neighbors(10) = %v", ns)
	}
	want := float64(2*17) / 12
	if got := n.AverageDegree(); got != want {
		t.Errorf("AverageDegree = %v, want %v", got, want)
	}
	if n.VocabularySize() != 6 {
		t.Errorf("VocabularySize = %d, want 6", n.VocabularySize())
	}
}

func TestPopularKeywords(t *testing.T) {
	n := reviewerNetwork(t)
	got := n.PopularKeywords(3)
	// SN appears 5 times, DQ 4, GD 4 (GD interned before DQ? order by
	// count desc then intern id asc: SN(5), GD(4, id 1), DQ(4, id 2)).
	if len(got) != 3 || got[0] != "SN" {
		t.Fatalf("PopularKeywords = %v", got)
	}
	if all := n.PopularKeywords(100); len(all) != 6 {
		t.Errorf("PopularKeywords(100) returned %d names, want 6", len(all))
	}
}

func TestPLLIndexEndToEnd(t *testing.T) {
	n := reviewerNetwork(t)
	pll, err := n.BuildPLL()
	if err != nil {
		t.Fatal(err)
	}
	if pll.Name() != "PLL" {
		t.Errorf("Name = %q", pll.Name())
	}
	if d := pll.Distance(3, 5); d != 3 {
		t.Errorf("Distance(3,5) = %d, want 3", d)
	}
	if pll.Entries() <= 0 || pll.SpaceBytes() <= 0 || pll.AverageLabelSize() <= 0 {
		t.Error("PLL accounting empty")
	}
	res, err := n.Search(reviewerQuery, ktg.SearchOptions{Index: pll})
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups[0].QKC != 1.0 {
		t.Errorf("PLL-backed search best QKC = %v", res.Groups[0].QKC)
	}
}

func TestLoadNetworkErrors(t *testing.T) {
	if _, err := ktg.LoadNetwork(strings.NewReader("not numbers\n"), nil); err == nil {
		t.Error("bad edge list accepted")
	}
	edges := strings.NewReader("0 1\n")
	attrs := strings.NewReader("not-a-vertex\tx\n")
	if _, err := ktg.LoadNetwork(edges, attrs); err == nil {
		t.Error("bad attributes accepted")
	}
}

func TestLoadNetworkWithoutAttributes(t *testing.T) {
	n, err := ktg.LoadNetwork(strings.NewReader("0 1\n1 2\n"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if n.NumVertices() != 3 || len(n.Keywords(0)) != 0 {
		t.Fatalf("keyword-free network wrong: %v", n)
	}
	// A query over it finds nothing (nobody covers a keyword) but does
	// not error.
	res, err := n.Search(ktg.Query{Keywords: []string{"x"}, GroupSize: 1, Tenuity: 1, TopN: 1},
		ktg.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 0 {
		t.Error("groups found without any keyword carrier")
	}
}

func TestBuilderIsolatedKeywordVertex(t *testing.T) {
	b := ktg.NewBuilder(0)
	b.AddEdge(0, 1)
	b.SetKeywords(5, "solo") // vertex 5 has keywords but no edges
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if n.NumVertices() != 6 {
		t.Fatalf("NumVertices = %d, want 6", n.NumVertices())
	}
	if got := n.Keywords(5); len(got) != 1 || got[0] != "solo" {
		t.Fatalf("Keywords(5) = %v", got)
	}
	// The isolated vertex is infinitely far from everyone: it can join
	// any group.
	res, err := n.Search(ktg.Query{Keywords: []string{"solo"}, GroupSize: 1, Tenuity: 4, TopN: 1},
		ktg.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 1 || res.Groups[0].Members[0] != 5 {
		t.Fatalf("expected the isolated vertex, got %+v", res.Groups)
	}
}

func TestSearchInvalidQuery(t *testing.T) {
	n := reviewerNetwork(t)
	bad := []ktg.Query{
		{GroupSize: 3, Tenuity: 1, TopN: 1},                            // no keywords
		{Keywords: []string{"SN"}, GroupSize: 0, Tenuity: 1, TopN: 1},  // p = 0
		{Keywords: []string{"SN"}, GroupSize: 3, Tenuity: -1, TopN: 1}, // k < 0
		{Keywords: []string{"SN"}, GroupSize: 3, Tenuity: 1, TopN: 0},  // N = 0
	}
	for i, q := range bad {
		if _, err := n.Search(q, ktg.SearchOptions{}); err == nil {
			t.Errorf("bad query %d accepted", i)
		}
		if _, err := n.SearchDiverse(q, ktg.DiverseOptions{Gamma: 0.5}); err == nil {
			t.Errorf("bad diverse query %d accepted", i)
		}
		if _, err := n.SearchGreedy(q, nil, 0); err == nil {
			t.Errorf("bad greedy query %d accepted", i)
		}
		if _, err := n.TAGQBaseline(q, 0.3, nil); err == nil {
			t.Errorf("bad TAGQ query %d accepted", i)
		}
	}
}

// TestSearchRejectsOutOfRangeQueryVertex: a query vertex past the end of
// the graph is a caller error, reported like a bad p, k or N under
// either index rather than crashing inside the distance check.
func TestSearchRejectsOutOfRangeQueryVertex(t *testing.T) {
	n := reviewerNetwork(t)
	nlrnl, err := n.BuildNLRNL()
	if err != nil {
		t.Fatal(err)
	}
	q := ktg.Query{Keywords: []string{"SN", "GD"}, GroupSize: 2, Tenuity: 1, TopN: 1}
	for _, idx := range []ktg.DistanceIndex{nil, nlrnl} {
		opts := ktg.SearchOptions{Index: idx, QueryVertices: []ktg.Vertex{0, ktg.Vertex(n.NumVertices())}}
		if _, err := n.Search(q, opts); err == nil {
			t.Errorf("index %v: out-of-range query vertex accepted", idx)
		}
		if _, err := n.SearchPartial(q, opts, ktg.CandidateSlice{Index: 0, Count: 2}); err == nil {
			t.Errorf("index %v: out-of-range query vertex accepted by a partial search", idx)
		}
		if _, err := n.SearchDiverse(q, ktg.DiverseOptions{SearchOptions: opts, Gamma: 0.5}); err == nil {
			t.Errorf("index %v: out-of-range query vertex accepted by a diverse search", idx)
		}
	}
}

func TestIndexLoadErrors(t *testing.T) {
	n := reviewerNetwork(t)
	if _, err := n.LoadNL(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Error("LoadNL accepted garbage")
	}
	if _, err := n.LoadNLRNL(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Error("LoadNLRNL accepted garbage")
	}
}

// TestQuickPublicAPIExactness drives the whole stack through the public
// API: on random networks, the default search must match brute force.
func TestQuickPublicAPIExactness(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		nv := 4 + r.Intn(12)
		b := ktg.NewBuilder(nv)
		for i := 0; i < nv; i++ {
			for j := i + 1; j < nv; j++ {
				if r.Float64() < 0.3 {
					b.AddEdge(ktg.Vertex(i), ktg.Vertex(j))
				}
			}
		}
		vocab := []string{"a", "b", "c", "d", "e"}
		for i := 0; i < nv; i++ {
			var kws []string
			for _, kw := range vocab {
				if r.Float64() < 0.4 {
					kws = append(kws, kw)
				}
			}
			b.SetKeywords(ktg.Vertex(i), kws...)
		}
		net, err := b.Build()
		if err != nil {
			return false
		}
		q := ktg.Query{
			Keywords:  vocab[:1+r.Intn(len(vocab))],
			GroupSize: 1 + r.Intn(3),
			Tenuity:   r.Intn(3),
			TopN:      1 + r.Intn(3),
		}
		want, err := net.Search(q, ktg.SearchOptions{Algorithm: ktg.AlgBruteForce})
		if err != nil {
			return false
		}
		for _, alg := range []ktg.Algorithm{ktg.AlgVKCDeg, ktg.AlgVKC, ktg.AlgQKC} {
			got, err := net.Search(q, ktg.SearchOptions{Algorithm: alg})
			if err != nil {
				return false
			}
			if len(got.Groups) != len(want.Groups) {
				return false
			}
			for i := range got.Groups {
				if got.Groups[i].QKC != want.Groups[i].QKC {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestAlgorithmString(t *testing.T) {
	cases := map[ktg.Algorithm]string{
		ktg.AlgVKCDeg:     "KTG-VKC-DEG",
		ktg.AlgVKC:        "KTG-VKC",
		ktg.AlgQKC:        "KTG-QKC",
		ktg.AlgBruteForce: "BruteForce",
	}
	for alg, want := range cases {
		if got := alg.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", alg, got, want)
		}
		if got := fmt.Sprint(alg); got != want {
			t.Errorf("Sprint = %q", got)
		}
	}
}

func TestCappedVsUncappedSameAnswers(t *testing.T) {
	n := reviewerNetwork(t)
	capped, err := n.Search(reviewerQuery, ktg.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	uncapped, err := n.Search(reviewerQuery, ktg.SearchOptions{UncappedPruneBound: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(capped.Groups) != len(uncapped.Groups) {
		t.Fatal("bound cap changed result count")
	}
	for i := range capped.Groups {
		if capped.Groups[i].QKC != uncapped.Groups[i].QKC {
			t.Fatal("bound cap changed coverage profile")
		}
	}
	if uncapped.Stats.Nodes < capped.Stats.Nodes {
		t.Errorf("uncapped explored fewer nodes (%d) than capped (%d)",
			uncapped.Stats.Nodes, capped.Stats.Nodes)
	}
}

func TestAuditTenuity(t *testing.T) {
	n := reviewerNetwork(t)
	// {0, 6, 10}: all pairwise distances are 2.
	a := n.AuditTenuity([]ktg.Vertex{0, 6, 10}, 1, 8, nil)
	if a.KLines != 0 || a.MinDistance != 2 || a.Pairs != 3 {
		t.Errorf("audit k=1: %+v", a)
	}
	idx, err := n.BuildNLRNL()
	if err != nil {
		t.Fatal(err)
	}
	b := n.AuditTenuity([]ktg.Vertex{0, 6, 10}, 2, 8, idx)
	if b.KLines != 3 || b.KTriangles != 1 || b.KTenuity != 1 {
		t.Errorf("audit k=2: %+v", b)
	}
	// Search results must audit clean.
	res, err := n.Search(reviewerQuery, ktg.SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range res.Groups {
		a := n.AuditTenuity(g.Members, reviewerQuery.Tenuity, 8, idx)
		if a.KLines != 0 {
			t.Errorf("search result has %d k-lines", a.KLines)
		}
	}
}
