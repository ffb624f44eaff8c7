package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"time"

	"ktg/internal/bitset"
	"ktg/internal/graph"
	"ktg/internal/index"
	"ktg/internal/keywords"
	"ktg/internal/obs"
)

// deadlineCheckMask throttles wall-clock deadline and context checks:
// both are consulted once every 128 node entries and once every 256
// oracle calls inside the k-line filtering loop, so even a single deep
// or filter-heavy subtree cannot overrun MaxDuration (or survive a
// cancellation) by more than a few hundred distance checks.
const (
	deadlineNodeMask   = 127
	deadlineOracleMask = 255
)

// Search answers a KTG query exactly with the paper's branch-and-bound:
// candidates are ranked by the configured Ordering, subtrees that cannot
// beat the current N-th best coverage are cut by keyword pruning
// (Theorem 2), and candidates within distance K of a chosen member are
// removed by k-line filtering (Theorem 3).
//
// The returned groups are k-distance groups of size P whose members each
// cover at least one query keyword, ranked by descending joint coverage.
// If fewer than N feasible groups exist, all of them are returned.
func Search(g graph.Topology, attrs *keywords.Attributes, q Query, opts Options) (*Result, error) {
	s, err := run(g, attrs, q, opts, nil)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Groups:     s.heap.Groups(),
		QueryWidth: s.kq.Width(),
		Stats:      s.stats,
	}
	return res, s.finishErr()
}

// run performs the shared branch-and-bound machinery behind Search and
// SearchPartial: validation, query compilation, frontier construction,
// and exploration. A nil slice explores the whole frontier; a non-nil
// slice restricts depth-0 roots to the assigned stride and records the
// accepted-offer stream for MergePartials.
func run(g graph.Topology, attrs *keywords.Attributes, q Query, opts Options, slice *CandidateSlice) (*searcher, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if attrs.NumVertices() != g.NumVertices() {
		return nil, fmt.Errorf("core: attributes cover %d vertices, graph has %d",
			attrs.NumVertices(), g.NumVertices())
	}
	// OrCtx stamps the context's request ID onto the fallback logger so
	// core-level lines correlate with the serving request even when the
	// caller injected no request-scoped logger.
	logger := obs.OrCtx(opts.Context, opts.Logger)
	logger.Debug("ktg: search start",
		"keywords", len(q.Keywords), "p", q.P, "k", q.K, "n", q.N,
		"ordering", opts.Ordering.String())
	compileStart := time.Now()
	kq, err := keywords.CompileQuery(attrs, q.Keywords)
	if err != nil {
		return nil, err
	}
	compileTime := time.Since(compileStart)
	// When the caller's context carries a trace span (the server's
	// search span), the phases also land there as child spans; span is
	// nil — and every call below a no-op — outside a traced request.
	span := obs.SpanFromContext(opts.Context)
	span.AddCompletedChild(obs.PhaseCompile, compileStart, compileTime)
	oracle := opts.Oracle
	if oracle == nil {
		oracle = index.NewBFSOracle(g)
	}
	s := &searcher{
		q:        q,
		kq:       kq,
		oracle:   oracle,
		ordering: opts.Ordering,
		pruning:  !opts.DisableKeywordPruning,
		uncapped: opts.UncappedPruneBound,
		maxNodes: opts.MaxNodes,
		probe:    opts.Probe,
		slice:    slice,
		heap:     newTopN(q.N),
		si:       make([]graph.Vertex, 0, q.P),
	}
	s.stats.CompileTime = compileTime
	if opts.MaxDuration > 0 {
		s.deadline = time.Now().Add(opts.MaxDuration)
		s.hasDeadline = true
	}
	s.ctx = opts.Context
	s.checkAbort = s.hasDeadline || s.ctx != nil
	if s.ordering == OrderVKCDegree {
		s.deg = make([]int32, g.NumVertices())
		for v := 0; v < g.NumVertices(); v++ {
			s.deg[v] = int32(g.Degree(graph.Vertex(v)))
		}
	}
	// Per-depth scratch: candidate buffers, covered-set buffers, and
	// effort histograms.
	s.candBuf = make([][]candidate, q.P)
	s.coverBuf = make([]bitset.Set, q.P+1)
	for d := range s.coverBuf {
		s.coverBuf[d] = bitset.New(kq.Width())
	}
	s.stats.DepthNodes = make([]int64, q.P+1)
	s.stats.DepthPruned = make([]int64, q.P+1)
	s.stats.DepthFiltered = make([]int64, q.P+1)

	candStart := time.Now()
	// Initial S_R: vertices covering at least one query keyword, minus
	// explicit exclusions and anyone socially close to a query vertex,
	// ranked by the configured ordering (VKC w.r.t. the empty group
	// equals the static coverage count).
	var excluded []bool
	if len(opts.ExcludeVertices) > 0 {
		excluded = make([]bool, g.NumVertices())
		for _, v := range opts.ExcludeVertices {
			if int(v) < len(excluded) {
				excluded[v] = true
			}
		}
	}
	root := make([]candidate, 0, 64)
	for _, v := range kq.Candidates() {
		if excluded != nil && excluded[v] {
			continue
		}
		nearQueryVertex := false
		for _, qv := range opts.QueryVertices {
			s.stats.OracleCalls++
			if oracle.Within(qv, v, q.K) {
				nearQueryVertex = true
				break
			}
		}
		if nearQueryVertex {
			s.stats.Filtered++
			continue
		}
		root = append(root, candidate{v: v, key: int32(kq.CoverageCount(v)), deg: s.degree(v)})
	}
	s.sortCandidates(root)
	s.frontier = len(root)
	s.stats.CandidateTime = time.Since(candStart)
	if s.probe != nil {
		// Owned depth-0 iterations: the root loop runs for i in
		// [0, frontier-P], and a partial search strides it by its slice.
		iters := len(root) - q.P + 1
		if iters < 0 {
			iters = 0
		}
		owned := iters
		if slice != nil {
			owned = 0
			if iters > slice.Index {
				owned = (iters - slice.Index + slice.Count - 1) / slice.Count
			}
		}
		s.probe.begin()
		s.probe.setFrontier(owned, len(root))
	}
	span.AddCompletedChild(obs.PhaseCandidates, candStart, s.stats.CandidateTime,
		obs.Attr{Key: "size", Value: strconv.Itoa(len(root))})

	exploreStart := time.Now()
	// A context cancelled before exploration starts skips it outright —
	// the throttled in-loop checks would otherwise admit up to a few
	// hundred nodes first.
	if s.ctx != nil && s.ctx.Err() != nil {
		s.ctxErr = s.ctx.Err()
		s.budgetHit = true
		s.probe.abort(s.abortCause(), 0)
	} else {
		s.explore(root, s.coverBuf[0], 0)
	}
	s.stats.ExploreTime = time.Since(exploreStart)
	// nodes/pruned include branch-and-bound effort; filtered counts the
	// k-line filter's removals (Theorem 3).
	span.AddCompletedChild(obs.PhaseExplore, exploreStart, s.stats.ExploreTime,
		obs.Attr{Key: "nodes", Value: strconv.FormatInt(s.stats.Nodes, 10)},
		obs.Attr{Key: "pruned", Value: strconv.FormatInt(s.stats.Pruned, 10)},
		obs.Attr{Key: "filtered", Value: strconv.FormatInt(s.stats.Filtered, 10)})

	logger.Debug("ktg: search done",
		"groups", len(s.heap.items), "nodes", s.stats.Nodes, "pruned", s.stats.Pruned,
		"filtered", s.stats.Filtered, "oracle_calls", s.stats.OracleCalls,
		"feasible", s.stats.Feasible, "explore", s.stats.ExploreTime,
		"budget_hit", s.budgetHit)
	s.probe.endSearch(s.stats, s.kq.Width())
	return s, nil
}

// abortCause names why the search stopped early, for explain-plan
// attribution: an external cancellation, a deadline (the context's or
// MaxDuration's), or — mapped by the caller directly — the node budget.
func (s *searcher) abortCause() string {
	if s.ctxErr != nil && !errors.Is(s.ctxErr, context.DeadlineExceeded) {
		return "cancelled"
	}
	return "deadline"
}

// finishErr maps budget exhaustion or cancellation onto the search error
// contract: the caller still gets the best groups found so far, paired
// with a wrapped context error or ErrBudgetExhausted.
func (s *searcher) finishErr() error {
	if !s.budgetHit {
		return nil
	}
	if s.ctxErr != nil {
		return fmt.Errorf("search cancelled after %d nodes: %w", s.stats.Nodes, s.ctxErr)
	}
	return fmt.Errorf("search aborted after %d nodes: %w", s.stats.Nodes, ErrBudgetExhausted)
}

type candidate struct {
	v   graph.Vertex
	key int32 // VKC count (or static coverage count under OrderQKC)
	deg int32 // vertex degree (only set under OrderVKCDegree)
}

type searcher struct {
	q           Query
	kq          *keywords.Query
	oracle      index.Oracle
	ordering    Ordering
	pruning     bool
	uncapped    bool
	maxNodes    int64
	deadline    time.Time
	hasDeadline bool
	ctx         context.Context
	checkAbort  bool // hasDeadline || ctx != nil
	ctxErr      error
	probe       *Probe

	deg      []int32
	heap     *topN
	stats    Stats
	si       []graph.Vertex
	candBuf  [][]candidate
	coverBuf []bitset.Set

	// Partial-search state: slice restricts depth-0 roots to a stride of
	// the frontier and turns on offer recording; curRoot/rootSeq tag each
	// accepted offer with its position in the deterministic exploration
	// order so MergePartials can replay the global offer stream.
	slice    *CandidateSlice
	frontier int
	offers   []PartialOffer
	curRoot  int
	rootSeq  int

	budgetHit bool
}

// aborted reports whether the wall-clock deadline has passed or the
// context has been cancelled, remembering the context error for the
// final result. Callers gate it behind checkAbort plus a counter mask,
// so the hot path pays at most one branch per node.
func (s *searcher) aborted() bool {
	if s.hasDeadline && time.Now().After(s.deadline) {
		return true
	}
	if s.ctx != nil {
		select {
		case <-s.ctx.Done():
			s.ctxErr = s.ctx.Err()
			return true
		default:
		}
	}
	return false
}

func (s *searcher) degree(v graph.Vertex) int32 {
	if s.deg == nil {
		return 0
	}
	return s.deg[v]
}

// explore expands one branch-and-bound node: si (the intermediate group
// S_I) has `depth` members jointly covering `covered`, and cands is the
// remaining candidate set S_R, ranked and already k-line-compatible with
// every member of S_I.
func (s *searcher) explore(cands []candidate, covered bitset.Set, depth int) {
	s.stats.Nodes++
	s.stats.DepthNodes[depth]++
	if s.probe != nil {
		s.probe.tick()
	}
	if s.maxNodes > 0 && s.stats.Nodes > s.maxNodes {
		s.budgetHit = true
		s.probe.abort("node_budget", depth)
		return
	}
	if s.checkAbort && s.stats.Nodes&deadlineNodeMask == 0 && s.aborted() {
		s.budgetHit = true
		s.probe.abort(s.abortCause(), depth)
		return
	}
	need := s.q.P - depth
	if need == 0 {
		s.stats.Feasible++
		s.offer(covered.Count())
		return
	}
	if len(cands) < need {
		return
	}
	childCover := s.coverBuf[depth+1]
	for i := 0; i+need <= len(cands); i++ {
		if depth == 0 && s.slice != nil {
			if !s.slice.owns(i) {
				continue
			}
			// Tag the subtree: every offer below this root records
			// (RootPos=i, Seq=discovery order) for the merge replay.
			s.curRoot = i
			s.rootSeq = 0
		}
		if s.pruning {
			// Theorem 2: coverage already secured plus the best
			// possible increment from the top `need` remaining
			// candidates bounds every group formed from cands[i:].
			// Group coverage can never exceed |W_Q|, so the bound is
			// capped there — once N full-coverage groups are held,
			// the whole remaining frontier collapses. Keys are sorted
			// descending, so the bound is monotone in i and the loop
			// can stop outright rather than skip.
			ub := covered.Count()
			for j := i; j < i+need; j++ {
				ub += int(cands[j].key)
			}
			if !s.uncapped {
				if w := s.kq.Width(); ub > w {
					ub = w
				}
			}
			if ub <= s.heap.Threshold() {
				s.stats.Pruned++
				s.stats.DepthPruned[depth]++
				break
			}
		}
		v := cands[i]
		childCover.CopyFrom(covered)
		childCover.UnionWith(s.kq.Mask(v.v))

		// k-line filtering (Theorem 3): drop candidates within K of v.
		// The wall-clock deadline and the context are re-checked here
		// every few hundred oracle calls: with a slow oracle (bounded
		// BFS on a large graph) a single node's filtering pass can
		// dwarf the per-node budget check, and before this loop-level
		// check a deep slow subtree could overrun MaxDuration (or
		// outlive a cancelled request) arbitrarily.
		child := s.candBuf[depth][:0]
		for _, u := range cands[i+1:] {
			s.stats.OracleCalls++
			if s.checkAbort && s.stats.OracleCalls&deadlineOracleMask == 0 && s.aborted() {
				s.budgetHit = true
				s.probe.abort(s.abortCause(), depth)
				s.candBuf[depth] = child
				return
			}
			if s.oracle.Within(v.v, u.v, s.q.K) {
				s.stats.Filtered++
				s.stats.DepthFiltered[depth]++
				continue
			}
			if s.ordering != OrderQKC {
				u.key = int32(s.kq.VKCCount(u.v, childCover))
			}
			child = append(child, u)
		}
		if s.ordering != OrderQKC {
			s.sortCandidates(child)
		}
		s.candBuf[depth] = child // keep any growth for reuse

		s.si = append(s.si, v.v)
		s.explore(child, childCover, depth+1)
		s.si = s.si[:len(s.si)-1]
		if s.budgetHit {
			return
		}
		if depth == 0 && s.probe != nil {
			s.probe.rootDone()
		}
	}
}

// offer submits the current S_I as a feasible group. Under a partial
// search, accepted offers are also appended to the replay stream.
func (s *searcher) offer(coverage int) {
	members := append([]graph.Vertex(nil), s.si...)
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	if !s.heap.Offer(members, coverage) {
		return
	}
	if s.probe != nil {
		s.probe.offerAccepted(coverage, s.heap.Threshold())
	}
	if s.slice != nil {
		s.offers = append(s.offers, PartialOffer{
			Group:   Group{Members: members, Coverage: coverage},
			RootPos: s.curRoot,
			Seq:     s.rootSeq,
		})
		s.rootSeq++
	}
}

// sortCandidates ranks S_R per the configured ordering. All orderings
// sort by descending key; VKC-DEG breaks ties by ascending degree (fewer
// social conflicts first); vertex id is the final tie-break so runs are
// deterministic.
func (s *searcher) sortCandidates(cands []candidate) {
	switch s.ordering {
	case OrderVKCDegree:
		sort.Slice(cands, func(i, j int) bool {
			a, b := cands[i], cands[j]
			if a.key != b.key {
				return a.key > b.key
			}
			if a.deg != b.deg {
				return a.deg < b.deg
			}
			return a.v < b.v
		})
	default:
		sort.Slice(cands, func(i, j int) bool {
			a, b := cands[i], cands[j]
			if a.key != b.key {
				return a.key > b.key
			}
			return a.v < b.v
		})
	}
}
