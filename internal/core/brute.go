package core

import (
	"fmt"
	"sort"
	"time"

	"ktg/internal/graph"
	"ktg/internal/index"
	"ktg/internal/keywords"
)

// BruteForce answers a KTG query by enumerating every size-P combination
// of qualified vertices — the O(|V|^p) reference of Section III. It is
// the correctness oracle for the branch-and-bound implementations and is
// only practical on small graphs.
func BruteForce(g graph.Topology, attrs *keywords.Attributes, q Query, opts Options) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if attrs.NumVertices() != g.NumVertices() {
		return nil, fmt.Errorf("core: attributes cover %d vertices, graph has %d",
			attrs.NumVertices(), g.NumVertices())
	}
	compileStart := time.Now()
	kq, err := keywords.CompileQuery(attrs, q.Keywords)
	if err != nil {
		return nil, err
	}
	oracle := opts.Oracle
	if oracle == nil {
		oracle = index.NewBFSOracle(g)
	}
	cands := kq.Candidates()
	heap := newTopN(q.N)
	var stats Stats
	stats.CompileTime = time.Since(compileStart)

	var deadline time.Time
	if opts.MaxDuration > 0 {
		deadline = time.Now().Add(opts.MaxDuration)
	}
	group := make([]graph.Vertex, 0, q.P)
	// stopErr ends the enumeration: ErrBudgetExhausted once MaxNodes or
	// MaxDuration is spent, or the context's error.
	var stopErr error
	var recurse func(start int)
	recurse = func(start int) {
		stats.Nodes++
		if opts.MaxNodes > 0 && stats.Nodes > opts.MaxNodes {
			stopErr = ErrBudgetExhausted
		} else if stats.Nodes&deadlineNodeMask == 0 {
			if !deadline.IsZero() && time.Now().After(deadline) {
				stopErr = ErrBudgetExhausted
			} else if opts.Context != nil {
				stopErr = opts.Context.Err()
			}
		}
		if stopErr != nil {
			return
		}
		if len(group) == q.P {
			stats.Feasible++
			heap.Offer(group, kq.GroupCoverageCount(group))
			return
		}
		for i := start; i < len(cands); i++ {
			if stopErr != nil {
				return
			}
			v := cands[i]
			ok := true
			for _, u := range group {
				stats.DistanceChecks++
				if oracle.Within(u, v, q.K) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			group = append(group, v)
			recurse(i + 1)
			group = group[:len(group)-1]
		}
	}
	exploreStart := time.Now()
	recurse(0)
	stats.ExploreTime = time.Since(exploreStart)

	groups := heap.Groups()
	// Candidates are scanned in increasing id order, so each group's
	// members are already sorted; normalize anyway for safety.
	for i := range groups {
		sort.Slice(groups[i].Members, func(a, b int) bool {
			return groups[i].Members[a] < groups[i].Members[b]
		})
	}
	res := &Result{Groups: groups, QueryWidth: kq.Width(), Stats: stats}
	if stopErr != nil {
		return res, fmt.Errorf("brute force stopped after %d nodes: %w", stats.Nodes, stopErr)
	}
	return res, nil
}
