package ktg_test

import (
	"fmt"
	"slices"
	"testing"

	"ktg"
)

// profileCovered is the reference for Group.Covered: the sorted,
// distinct query keywords that some member's profile carries.
func profileCovered(n *ktg.Network, q ktg.Query, members []ktg.Vertex) []string {
	var out []string
	for _, kw := range q.Keywords {
		for _, v := range members {
			if slices.Contains(n.Keywords(v), kw) && !slices.Contains(out, kw) {
				out = append(out, kw)
			}
		}
	}
	slices.Sort(out)
	return out
}

// TestCoveredMatchesProfiles checks the covered keywords every entry
// point lifts from its compiled query against the members' profiles,
// on queries with duplicate and unknown keywords.
func TestCoveredMatchesProfiles(t *testing.T) {
	n, err := ktg.GeneratePreset("brightkite", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := n.BuildNLRNL()
	if err != nil {
		t.Fatal(err)
	}
	popular := n.PopularKeywords(12)
	queries := []ktg.Query{
		{Keywords: popular[:4], GroupSize: 3, Tenuity: 2, TopN: 5},
		{Keywords: append([]string{"no-such-keyword", popular[5], popular[5]}, popular[8:11]...), GroupSize: 3, Tenuity: 1, TopN: 4},
		{Keywords: []string{popular[11], popular[2], "zz-unknown"}, GroupSize: 2, Tenuity: 2, TopN: 3},
	}
	check := func(label string, q ktg.Query, groups []ktg.Group) {
		t.Helper()
		if len(groups) == 0 {
			t.Fatalf("%s: no groups", label)
		}
		for _, g := range groups {
			if want := profileCovered(n, q, g.Members); !slices.Equal(g.Covered, want) {
				t.Fatalf("%s: group %v covers %v, profiles give %v", label, g.Members, g.Covered, want)
			}
		}
	}
	for i, q := range queries {
		opts := ktg.SearchOptions{Index: idx}
		res, err := n.Search(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("query %d Search", i), q, res.Groups)
		for s := 0; s < 2; s++ {
			pr, err := n.SearchPartial(q, opts, ktg.CandidateSlice{Index: s, Count: 2})
			if err != nil {
				t.Fatal(err)
			}
			var offered []ktg.Group
			for _, o := range pr.Offers {
				offered = append(offered, o.Group)
			}
			check(fmt.Sprintf("query %d SearchPartial %d/2", i, s), q, append(offered, pr.Groups...))
		}
		dr, err := n.SearchDiverse(q, ktg.DiverseOptions{SearchOptions: opts, Gamma: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("query %d SearchDiverse", i), q, dr.Groups)
		gr, err := n.SearchGreedy(q, idx, 0)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("query %d SearchGreedy", i), q, gr.Groups)
		tg, err := n.TAGQBaseline(q, 0, idx)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("query %d TAGQBaseline", i), q, tg.Groups)
		for _, g := range res.Groups {
			if got := n.CoveredKeywords(q, g.Members); !slices.Equal(got, g.Covered) {
				t.Fatalf("query %d: CoveredKeywords(%v) = %v, Search says %v", i, g.Members, got, g.Covered)
			}
		}
	}
}
