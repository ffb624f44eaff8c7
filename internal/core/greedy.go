package core

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"strconv"
	"time"

	"ktg/internal/graph"
	"ktg/internal/index"
	"ktg/internal/keywords"
	"ktg/internal/obs"
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
	// Logger receives structured start/finish records (nil = obs
	// package default).
	Logger *slog.Logger
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
	compileTime := time.Since(compileStart)
	// Nil outside a traced request; every call below is then a no-op.
	span := obs.SpanFromContext(opts.Context)
	span.AddCompletedChild(obs.PhaseCompile, compileStart, compileTime)
	oracle := opts.Oracle
	if oracle == nil {
		oracle = index.NewBFSOracle(g)
	}
	seeds := opts.Seeds
	if seeds <= 0 {
		seeds = 4 * q.N
	}

	type cand struct {
		v   graph.Vertex
		cov int32
		deg int32
	}
	base := make([]cand, 0, 64)
	for _, v := range kq.Candidates() {
		base = append(base, cand{v, int32(kq.CoverageCount(v)), int32(g.Degree(v))})
	}
	sort.Slice(base, func(i, j int) bool {
		a, b := base[i], base[j]
		if a.cov != b.cov {
			return a.cov > b.cov
		}
		if a.deg != b.deg {
			return a.deg < b.deg
		}
		return a.v < b.v
	})

	var stats Stats
	stats.CompileTime = compileTime
	heap := newTopN(q.N)
	seen := map[string]bool{}
	pool := make([]cand, 0, len(base))
	group := make([]graph.Vertex, 0, q.P)

	probe := opts.Probe
	if probe != nil {
		owned := seeds
		if len(base) < owned {
			owned = len(base)
		}
		probe.begin()
		probe.setFrontier(owned, len(base))
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
		covered := kq.Mask(base[s].v).Clone()
		// Pool: everyone except the seed, in base order.
		pool = pool[:0]
		pool = append(pool, base[:s]...)
		pool = append(pool, base[s+1:]...)

		for len(group) < q.P {
			bestIdx := -1
			var bestVKC, bestDeg int32
			for i, c := range pool {
				vkc := int32(kq.VKCCount(c.v, covered))
				if bestIdx >= 0 && (vkc < bestVKC || (vkc == bestVKC && c.deg >= bestDeg)) {
					continue
				}
				compatible := true
				for _, m := range group {
					stats.OracleCalls++
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
			covered.UnionWith(kq.Mask(chosen.v))
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
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
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
	span.AddCompletedChild(obs.PhaseExplore, exploreStart, stats.ExploreTime,
		obs.Attr{Key: "seeds", Value: strconv.FormatInt(stats.Nodes, 10)})
	obs.OrCtx(opts.Context, opts.Logger).Debug("ktg: greedy search done",
		"seeds", stats.Nodes, "feasible", stats.Feasible,
		"oracle_calls", stats.OracleCalls, "explore", stats.ExploreTime,
		"cancelled", ctxErr != nil)
	probe.endSearch(stats, kq.Width())
	res := &Result{Groups: heap.Groups(), QueryWidth: kq.Width(), Stats: stats}
	if ctxErr != nil {
		return res, fmt.Errorf("greedy search cancelled after %d seeds: %w", stats.Nodes, ctxErr)
	}
	return res, nil
}
