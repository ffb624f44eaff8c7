package core

import (
	"fmt"

	"ktg/internal/graph"
	"ktg/internal/keywords"
)

// DiverseOptions configures SearchDiverse.
type DiverseOptions struct {
	// Options configures the underlying per-group searches. The
	// ordering defaults to OrderVKCDegree, matching the paper's
	// DKTG-Greedy (which runs KTG-VKC-DEG for each group).
	Options
	// Gamma weighs keyword coverage against diversity in the total
	// score (Equation 4). The paper's case study uses 0.5.
	Gamma float64
}

// DiverseResult is the output of a DKTG search.
type DiverseResult struct {
	// Groups holds at most N pairwise-disjoint groups in discovery
	// order (the first has the globally maximal coverage).
	Groups []Group
	// QueryWidth is |W_Q| after deduplication.
	QueryWidth int
	// Diversity is dL(RG), the mean pairwise Jaccard distance
	// (Equation 3); 1 when all groups are disjoint.
	Diversity float64
	// MinQKC is min_{g∈RG} QKC(g), the coverage term of the score.
	MinQKC float64
	// Score is the total score of Equation 4.
	Score float64
	// Stats aggregates effort across the per-group searches.
	Stats Stats
}

// JaccardDistance returns dL(g1, g2) of Equation 2: the fraction of the
// union of members not shared by both groups. Two empty groups have
// distance 0 (they are identical).
func JaccardDistance(g1, g2 []graph.Vertex) float64 {
	seen := make(map[graph.Vertex]int, len(g1)+len(g2))
	for _, v := range g1 {
		seen[v] = 1
	}
	inter := 0
	for _, v := range g2 {
		if seen[v] == 1 {
			seen[v] = 2
			inter++
		} else if _, ok := seen[v]; !ok {
			seen[v] = 3
		}
	}
	union := len(seen)
	if union == 0 {
		return 0
	}
	return float64(union-inter) / float64(union)
}

// DiversityScore returns dL(RG) of Equation 3: the average pairwise
// Jaccard distance over the result groups. With fewer than two groups
// there is no redundancy to measure and the score is 1.
func DiversityScore(groups []Group) float64 {
	n := len(groups)
	if n < 2 {
		return 1
	}
	var sum float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			sum += JaccardDistance(groups[i].Members, groups[j].Members)
		}
	}
	return 2 * sum / float64(n*(n-1))
}

// TotalScore returns score(RG) of Equation 4 for the given groups.
func TotalScore(groups []Group, queryWidth int, gamma float64) float64 {
	if len(groups) == 0 {
		return 0
	}
	minQKC := 1.0
	for _, g := range groups {
		if q := g.QKC(queryWidth); q < minQKC {
			minQKC = q
		}
	}
	return gamma*minQKC + (1-gamma)*DiversityScore(groups)
}

// SearchDiverse answers a DKTG query (Definition 10) with the paper's
// DKTG-Greedy algorithm: it repeatedly runs a top-1 KTG search (KTG-
// VKC-DEG by default), removes the members of each found group from the
// candidate pool — maximizing the diversity term — and keeps accepting
// groups of lower coverage when the pool no longer supports the current
// maximum (the paper's fallback strategy (2)). It stops early when no
// feasible disjoint group remains, returning fewer than N groups.
func SearchDiverse(g graph.Topology, attrs *keywords.Attributes, q Query, opts DiverseOptions) (*DiverseResult, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if opts.Gamma < 0 || opts.Gamma > 1 {
		return nil, fmt.Errorf("core: gamma must be in [0,1], got %v", opts.Gamma)
	}
	perGroup := opts.Options
	perGroup.ExcludeVertices = append([]graph.Vertex(nil), opts.ExcludeVertices...)

	res := &DiverseResult{}
	for len(res.Groups) < q.N {
		sub := q
		sub.N = 1
		r, err := Search(g, attrs, sub, perGroup)
		if r == nil {
			// Validation or compile failure: nothing partial to keep.
			return nil, err
		}
		res.QueryWidth = r.QueryWidth
		res.Stats.Add(r.Stats)
		if len(r.Groups) > 0 {
			best := r.Groups[0]
			res.Groups = append(res.Groups, best)
			perGroup.ExcludeVertices = append(perGroup.ExcludeVertices, best.Members...)
		}
		if err != nil {
			// Budget exhausted or context cancelled mid-greedy: return
			// what we have.
			res.finishScores(opts.Gamma)
			return res, err
		}
		if len(r.Groups) == 0 {
			break
		}
	}
	res.finishScores(opts.Gamma)
	return res, nil
}

func (r *DiverseResult) finishScores(gamma float64) {
	r.Diversity = DiversityScore(r.Groups)
	if len(r.Groups) > 0 {
		r.MinQKC = 1
		for _, g := range r.Groups {
			if q := g.QKC(r.QueryWidth); q < r.MinQKC {
				r.MinQKC = q
			}
		}
	}
	r.Score = gamma*r.MinQKC + (1-gamma)*r.Diversity
}
