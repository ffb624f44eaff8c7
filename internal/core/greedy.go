package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"ktg/internal/graph"
	"ktg/internal/index"
	"ktg/internal/keywords"
)

// GreedyOptions configures the approximate Greedy search.
type GreedyOptions struct {
	// Oracle answers social-distance bounds (nil = BFS).
	Oracle index.Oracle
	// Seeds is how many distinct starting vertices to try (each seed
	// grows at most one group). 0 picks 4×N, which in practice fills
	// the top-N whenever the constraints are satisfiable at all.
	Seeds int
	// Context cancels the search between seeds: on cancellation the
	// groups completed so far are returned together with an error
	// wrapping ctx.Err(). nil disables the checks.
	Context context.Context
	// Probe collects a per-query explain plan and live progress
	// (nil = off). Greedy has no branch-and-bound tree, so the plan
	// carries seed-level progress and the bound trajectory only; the
	// per-depth breakdown stays empty.
	Probe *Probe
}

// Greedy answers a KTG query approximately in a single pass per group:
// starting from each seed in coverage order, it repeatedly adds the
// compatible candidate with the highest valid keyword coverage (degree
// as tie-break) until the group reaches size P. It never backtracks, so
// it can miss the optimum, but it runs in O(seeds · p · |candidates|)
// and the groups it returns always satisfy every KTG constraint —
// a practical choice when exact search is too slow and a coverage gap
// is acceptable. The gap is measured against the exact algorithms in
// the test suite and benchmarks.
func Greedy(g graph.Topology, attrs *keywords.Attributes, q Query, opts GreedyOptions) (*Result, error) {
	kq, oracle, compileTime, err := prepare(g, attrs, q, opts.Oracle)
	if err != nil {
		return nil, err
	}
	seeds := opts.Seeds
	if seeds <= 0 {
		seeds = 4 * q.N
	}

	base := make([]greedyCand, len(kq.Members()))
	for i, v := range kq.Members() {
		base[i] = greedyCand{v, i, int32(kq.MemberMask(i).Count()), int32(g.Degree(v))}
	}
	slices.SortFunc(base, bySeedOrder)

	stats := Stats{CompileTime: compileTime}
	heap := newTopN(q.N)
	seen := map[string]bool{}
	pool := make([]greedyCand, 0, len(base))
	group := make([]graph.Vertex, 0, q.P)

	probe := opts.Probe
	if probe != nil {
		probe.begin()
		probe.setFrontier(min(seeds, len(base)), len(base))
	}

	var ctxErr error
	exploreStart := time.Now()
	for s := 0; s < len(base) && s < seeds; s++ {
		if opts.Context != nil {
			if err := opts.Context.Err(); err != nil {
				ctxErr = err
				if errors.Is(err, context.DeadlineExceeded) {
					probe.abort("deadline", 0)
				} else {
					probe.abort("cancelled", 0)
				}
				break
			}
		}
		group = append(group[:0], base[s].v)
		covered := kq.MemberMask(base[s].pos).Clone()
		// Pool: everyone except the seed, in base order.
		pool = pool[:0]
		pool = append(pool, base[:s]...)
		pool = append(pool, base[s+1:]...)

		for len(group) < q.P {
			bestIdx := -1
			var bestVKC, bestDeg int32
			for i, c := range pool {
				vkc := int32(kq.MemberMask(c.pos).CountDifference(covered))
				if bestIdx >= 0 && (vkc < bestVKC || (vkc == bestVKC && c.deg >= bestDeg)) {
					continue
				}
				compatible := true
				for _, m := range group {
					stats.DistanceChecks++
					if oracle.Within(m, c.v, q.K) {
						compatible = false
						break
					}
				}
				if !compatible {
					continue
				}
				bestIdx, bestVKC, bestDeg = i, vkc, c.deg
			}
			if bestIdx < 0 {
				break // no compatible candidate; this seed fails
			}
			chosen := pool[bestIdx]
			group = append(group, chosen.v)
			covered.UnionWith(kq.MemberMask(chosen.pos))
			pool = append(pool[:bestIdx], pool[bestIdx+1:]...)
		}
		stats.Nodes++
		if probe != nil {
			probe.tick()
			probe.rootDone()
		}
		if len(group) < q.P {
			continue
		}
		members := append([]graph.Vertex(nil), group...)
		slices.Sort(members)
		key := fmt.Sprint(members)
		if seen[key] {
			continue
		}
		seen[key] = true
		stats.Feasible++
		if heap.Offer(members, covered.Count()) && probe != nil {
			probe.offerAccepted(covered.Count(), heap.Threshold())
		}
	}
	stats.ExploreTime = time.Since(exploreStart)
	probe.endSearch(stats, kq.Width())
	res := &Result{Groups: heap.Groups(), QueryWidth: kq.Width(), Compiled: kq, Stats: stats}
	if ctxErr != nil {
		return res, fmt.Errorf("greedy search cancelled after %d seeds: %w", stats.Nodes, ctxErr)
	}
	return res, nil
}

// greedyCand is a candidate of the greedy searches: a vertex with its
// coverage count, its degree and its index in S_R (-1 outside it).
type greedyCand struct {
	v        graph.Vertex
	pos      int
	cov, deg int32
}

// bySeedOrder ranks seeds by descending coverage, then ascending degree
// and id: the seed order of Greedy and TAGQ.
func bySeedOrder(a, b greedyCand) int {
	return cmp.Or(cmp.Compare(b.cov, a.cov), cmp.Compare(a.deg, b.deg), cmp.Compare(a.v, b.v))
}
