package core

import (
	"fmt"
	"time"

	"ktg/internal/bitset"
	"ktg/internal/graph"
	"ktg/internal/keywords"
)

// BruteForce answers a KTG query by enumerating every size-P combination
// of qualified vertices — the O(|V|^p) reference of Section III. It is
// the correctness oracle for the branch-and-bound implementations and is
// only practical on small graphs.
func BruteForce(g graph.Topology, attrs *keywords.Attributes, q Query, opts Options) (*Result, error) {
	kq, oracle, compileTime, err := prepare(g, attrs, q, opts.Oracle)
	if err != nil {
		return nil, err
	}
	cands := kq.Members()
	heap := newTopN(q.N)
	stats := Stats{CompileTime: compileTime}

	var deadline time.Time
	if opts.MaxDuration > 0 {
		deadline = time.Now().Add(opts.MaxDuration)
	}
	group := make([]graph.Vertex, 0, q.P)
	// cover[d] is the coverage of the group's first d members.
	cover := make([]bitset.Set, q.P+1)
	for d := range cover {
		cover[d] = bitset.New(kq.Width())
	}
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
			heap.Offer(group, cover[q.P].Count())
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
			cover[len(group)+1].CopyFrom(cover[len(group)])
			cover[len(group)+1].UnionWith(kq.MemberMask(i))
			group = append(group, v)
			recurse(i + 1)
			group = group[:len(group)-1]
		}
	}
	exploreStart := time.Now()
	recurse(0)
	stats.ExploreTime = time.Since(exploreStart)

	// Candidates are scanned in increasing id order, so each group's
	// members are already sorted.
	res := &Result{Groups: heap.Groups(), QueryWidth: kq.Width(), Compiled: kq, Stats: stats}
	if stopErr != nil {
		return res, fmt.Errorf("brute force stopped after %d nodes: %w", stats.Nodes, stopErr)
	}
	return res, nil
}
