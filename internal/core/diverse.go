package core

import (
	"fmt"
	"slices"

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
	// Compiled is the compiled query the searches ran on.
	Compiled *keywords.Query
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
	in := make(map[graph.Vertex]uint8, len(g1)+len(g2)) // bit i: in group i+1
	for _, v := range g1 {
		in[v] |= 1
	}
	inter := 0
	for _, v := range g2 {
		if in[v] == 1 {
			inter++
		}
		in[v] |= 2
	}
	if len(in) == 0 {
		return 0
	}
	return float64(len(in)-inter) / float64(len(in))
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
	return gamma*minQKC(groups, queryWidth) + (1-gamma)*DiversityScore(groups)
}

// minQKC returns min_{g∈RG} QKC(g), or 0 without groups.
func minQKC(groups []Group, queryWidth int) float64 {
	if len(groups) == 0 {
		return 0
	}
	m := 1.0
	for _, g := range groups {
		m = min(m, g.QKC(queryWidth))
	}
	return m
}

// SearchDiverse answers a DKTG query (Definition 10) with the paper's
// DKTG-Greedy algorithm: it repeatedly runs a top-1 KTG search (KTG-
// VKC-DEG by default), removes the members of each found group from the
// candidate pool — maximizing the diversity term — and keeps accepting
// groups of lower coverage when the pool no longer supports the current
// maximum (the paper's fallback strategy (2)). It stops early when no
// feasible disjoint group remains, returning fewer than N groups.
//
// The top-1 searches share one setup and one distance memo, and query
// vertices are checked once. Each runs with a fresh heap and budget on
// the pool its predecessors left; removing their members keeps the rest
// in rank order, so it explores the tree of a search that excluded them.
func SearchDiverse(g graph.Topology, attrs *keywords.Attributes, q Query, opts DiverseOptions) (*DiverseResult, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if opts.Gamma < 0 || opts.Gamma > 1 {
		return nil, fmt.Errorf("core: gamma must be in [0,1], got %v", opts.Gamma)
	}
	top1 := q
	top1.N = 1
	s, err := newSearcher(g, attrs, top1, opts.Options, nil, memoBudgetBytes)
	if err != nil {
		return nil, err
	}
	pool := slices.Clone(s.rem[0])
	res := &DiverseResult{QueryWidth: s.kq.Width(), Compiled: s.kq}
	for len(res.Groups) < q.N {
		if len(res.Groups) > 0 {
			s.reset()
		}
		copy(s.rem[0], pool)
		s.search()
		res.Stats.Add(s.stats)
		groups := s.heap.Groups()
		if len(groups) > 0 {
			best := groups[0]
			res.Groups = append(res.Groups, best)
			for id, v := range s.verts {
				if slices.Contains(best.Members, v) {
					pool[id>>6] &^= 1 << (id & 63)
				}
			}
		}
		// A budget exhausted or a context cancelled mid-greedy returns
		// what we have.
		if err = s.finishErr(); err != nil || len(groups) == 0 {
			break
		}
	}
	res.finishScores(opts.Gamma)
	return res, err
}

func (r *DiverseResult) finishScores(gamma float64) {
	r.Diversity = DiversityScore(r.Groups)
	r.MinQKC = minQKC(r.Groups, r.QueryWidth)
	r.Score = gamma*r.MinQKC + (1-gamma)*r.Diversity
}
