package core

import (
	"fmt"
	"testing"

	"ktg/internal/graph"
	"ktg/internal/keywords"
)

// refSearchDiverse is DKTG-Greedy as N separate top-1 searches, each
// compiling the query again and excluding the members of the groups
// before it — the loop SearchDiverse ran before its rounds shared one
// setup. It also reports how many searches ran.
func refSearchDiverse(t *testing.T, g graph.Topology, attrs *keywords.Attributes, q Query, opts DiverseOptions) (*DiverseResult, int) {
	t.Helper()
	perGroup := opts.Options
	perGroup.ExcludeVertices = append([]graph.Vertex(nil), opts.ExcludeVertices...)
	res := &DiverseResult{}
	rounds := 0
	for len(res.Groups) < q.N {
		sub := q
		sub.N = 1
		r, err := Search(g, attrs, sub, perGroup)
		if err != nil {
			t.Fatal(err)
		}
		rounds++
		res.QueryWidth = r.QueryWidth
		res.Stats.Add(r.Stats)
		if len(r.Groups) == 0 {
			break
		}
		res.Groups = append(res.Groups, r.Groups[0])
		perGroup.ExcludeVertices = append(perGroup.ExcludeVertices, r.Groups[0].Members...)
	}
	res.finishScores(opts.Gamma)
	return res, rounds
}

// requireDiverseMatchesReference runs SearchDiverse and the N-search
// reference: groups, scores and every deterministic counter must agree,
// and the shared memo may only ask the oracle less often. With query
// vertices set, SearchDiverse removes their neighbourhoods once where
// the reference removes them once per search, so Filtered falls by that
// count for every search after the first.
func requireDiverseMatchesReference(t *testing.T, label string, g graph.Topology, attrs *keywords.Attributes, q Query, opts DiverseOptions) {
	t.Helper()
	got, err := SearchDiverse(g, attrs, q, opts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want, rounds := refSearchDiverse(t, g, attrs, q, opts)
	if fmt.Sprint(got.Groups) != fmt.Sprint(want.Groups) {
		t.Fatalf("%s: groups %v, reference %v", label, got.Groups, want.Groups)
	}
	if got.QueryWidth != want.QueryWidth || got.Score != want.Score || got.Diversity != want.Diversity {
		t.Fatalf("%s: width/score/diversity %d/%v/%v, reference %d/%v/%v", label,
			got.QueryWidth, got.Score, got.Diversity, want.QueryWidth, want.Score, want.Diversity)
	}
	if len(opts.QueryVertices) > 0 {
		s, err := newSearcher(g, attrs, q, opts.Options, nil, memoBudgetBytes)
		if err != nil {
			t.Fatal(err)
		}
		want.Stats.Filtered -= int64(rounds-1) * s.stats.Filtered
	}
	requireSameStats(t, label, got.Stats, want.Stats)
}

func TestSearchDiverseMatchesReference(t *testing.T) {
	g, attrs := fixtureGraph(), fixtureAttrs()
	kws := fixtureQuery(t, attrs)
	for _, n := range []int{1, 2, 3, 50} { // 50: the pool runs out
		for _, o := range kernelVariants(Options{}) {
			for _, extra := range []Options{{}, {ExcludeVertices: []graph.Vertex{0, 6}}, {QueryVertices: []graph.Vertex{4}}} {
				o.ExcludeVertices, o.QueryVertices = extra.ExcludeVertices, extra.QueryVertices
				q := Query{Keywords: kws, P: 3, K: 1, N: n}
				label := fmt.Sprintf("fixture N=%d %s", n, variantLabel(o))
				requireDiverseMatchesReference(t, label, g, attrs, q, DiverseOptions{Options: o, Gamma: 0.5})
			}
		}
	}

	ds, idx, wl := brightkite(t)
	for qi := 0; qi < 3; qi++ {
		kws := wl.QueryKeywords(4 + qi)
		for _, o := range kernelVariants(Options{Oracle: idx}) {
			if exhaustive(o) {
				continue
			}
			q := Query{Keywords: kws, P: 3 + qi%2, K: 2, N: 5}
			if qi == 2 {
				o.ExcludeVertices = []graph.Vertex{1, 5, 8, 13}
			}
			label := fmt.Sprintf("%s query %d %s", ds.Name, qi, variantLabel(o))
			requireDiverseMatchesReference(t, label, ds.Graph, ds.Attrs, q, DiverseOptions{Options: o, Gamma: 0.5})
		}
	}
}
