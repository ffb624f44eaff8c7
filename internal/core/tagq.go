package core

import (
	"fmt"
	"slices"

	"ktg/internal/graph"
	"ktg/internal/index"
	"ktg/internal/keywords"
)

// TAGQOptions configures the TAGQ-style baseline.
type TAGQOptions struct {
	// Oracle answers social-distance bounds (nil = BFS).
	Oracle index.Oracle
	// TenuityBudget is the k-tenuity bound of Li et al. [18]: the
	// allowed fraction of member pairs within K hops, in [0, 1].
	// 0 forbids close pairs entirely; the paper's critique is that any
	// positive budget admits close pairs, and that the model admits
	// zero-coverage members. Default 0.34 (about one close pair in a
	// group of three).
	TenuityBudget float64
}

// TAGQ is the comparison baseline of the paper's case study (Figure 8),
// modeling the tenuous attributed group query of Li et al. [18]: groups
// maximize keyword coverage under a k-tenuity *ratio* constraint rather
// than a hard k-distance constraint, and members are not required to
// cover any query keyword. Both relaxations are visible in the case
// study: TAGQ groups may contain close pairs and zero-coverage members.
//
// The reference system is closed source; this greedy reimplementation
// reproduces the objective, which is all the case study exercises.
func TAGQ(g graph.Topology, attrs *keywords.Attributes, q Query, opts TAGQOptions) (*Result, error) {
	kq, oracle, _, err := prepare(g, attrs, q, opts.Oracle)
	if err != nil {
		return nil, err
	}
	if opts.TenuityBudget < 0 || opts.TenuityBudget > 1 {
		return nil, fmt.Errorf("core: tenuity budget must be in [0,1], got %v", opts.TenuityBudget)
	}
	if opts.TenuityBudget == 0 {
		opts.TenuityBudget = 0.34
	}
	totalPairs := q.P * (q.P - 1) / 2
	maxClose := int(opts.TenuityBudget * float64(totalPairs))

	// Candidate order: coverage-descending, degree-ascending. Unlike
	// KTG, vertices covering nothing stay in the pool (after all the
	// covering ones), which is how zero-coverage members leak into
	// results.
	cands := make([]greedyCand, g.NumVertices())
	for v := range cands {
		cands[v] = greedyCand{graph.Vertex(v), -1, 0, int32(g.Degree(graph.Vertex(v)))}
	}
	for i, v := range kq.Members() {
		cands[v].pos, cands[v].cov = i, int32(kq.MemberMask(i).Count())
	}
	slices.SortFunc(cands, bySeedOrder)

	var stats Stats
	used := make(map[graph.Vertex]bool)
	var groups []Group
	// Greedily emit up to N groups, starting each from the next unused
	// seed and growing by coverage while the close-pair budget holds.
	for seedIdx := 0; seedIdx < len(cands) && len(groups) < q.N; seedIdx++ {
		seed := cands[seedIdx]
		if used[seed.v] {
			continue
		}
		members := []graph.Vertex{seed.v}
		closePairs := 0
		covered := kq.MemberMask(seed.pos).Clone()
		for _, c := range cands {
			if len(members) == q.P {
				break
			}
			if c.v == seed.v || used[c.v] {
				continue
			}
			add := 0
			for _, m := range members {
				stats.DistanceChecks++
				if oracle.Within(m, c.v, q.K) {
					add++
				}
			}
			if closePairs+add > maxClose {
				continue
			}
			members = append(members, c.v)
			closePairs += add
			covered.UnionWith(kq.MemberMask(c.pos))
		}
		if len(members) < q.P {
			continue
		}
		slices.Sort(members)
		groups = append(groups, Group{Members: members, Coverage: covered.Count()})
		for _, m := range members {
			used[m] = true
		}
		stats.Feasible++
	}
	return &Result{Groups: groups, QueryWidth: kq.Width(), Compiled: kq, Stats: stats}, nil
}
