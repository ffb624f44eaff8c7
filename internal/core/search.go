package core

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"time"

	"ktg/internal/graph"
	"ktg/internal/index"
	"ktg/internal/keywords"
)

// Wall-clock deadline and context checks are throttled: both are
// consulted once every 128 node entries and once every 256 oracle calls
// inside the distance memo's fill, so even a single deep or filter-heavy
// subtree cannot overrun MaxDuration (or survive a cancellation) by more
// than a few hundred distance checks.
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
	s, err := runWithMemo(g, attrs, q, opts, nil, memoBudgetBytes)
	if err != nil {
		return nil, err
	}
	return &Result{Groups: s.heap.Groups(), QueryWidth: s.kq.Width(), Compiled: s.kq, Stats: s.stats}, s.finishErr()
}

// runWithMemo runs Search or SearchPartial under a distance-memo budget
// in bytes: setup, then one search over the root frontier. A non-nil
// slice restricts depth-0 roots to its stride and records the accepted
// offers for MergePartials.
func runWithMemo(g graph.Topology, attrs *keywords.Attributes, q Query, opts Options, slice *CandidateSlice, memoBudget int) (*searcher, error) {
	s, err := newSearcher(g, attrs, q, opts, slice, memoBudget)
	if err != nil {
		return nil, err
	}
	s.search()
	return s, nil
}

// newSearcher validates the query, compiles it, and builds the kernel
// over S_R: the members that survive ExcludeVertices and QueryVertices,
// with local ids in the ordering's rank, their keyword holder sets, all
// of them in rem[0], and an empty distance memo.
func newSearcher(g graph.Topology, attrs *keywords.Attributes, q Query, opts Options, slice *CandidateSlice, memoBudget int) (*searcher, error) {
	kq, oracle, compileTime, err := prepare(g, attrs, q, opts.Oracle)
	if err != nil {
		return nil, err
	}
	for _, qv := range opts.QueryVertices {
		if int(qv) >= g.NumVertices() {
			return nil, fmt.Errorf("core: query vertex %d out of range [0,%d)", qv, g.NumVertices())
		}
	}
	s := &searcher{
		q:           q,
		kq:          kq,
		oracle:      oracle,
		ordering:    opts.Ordering,
		pruning:     !opts.DisableKeywordPruning,
		uncapped:    opts.UncappedPruneBound,
		maxNodes:    opts.MaxNodes,
		maxDuration: opts.MaxDuration,
		ctx:         opts.Context,
		probe:       opts.Probe,
		slice:       slice,
		si:          make([]graph.Vertex, 0, q.P),
	}
	s.reset()
	s.stats.CompileTime = compileTime

	candStart := time.Now()
	// Initial S_R: vertices covering at least one query keyword, minus
	// explicit exclusions and anyone socially close to a query vertex.
	// ties[i] is member i's tie key, or -1 once dropped: local ids follow
	// the ordering's tie-break, so "key descending, then local id" is the
	// full ranking. The root's keys are the static coverage counts.
	sr, maxTie := kq.Members(), int32(0)
	ties := make([]int32, len(sr))
	for _, v := range opts.ExcludeVertices {
		if i := kq.Position(v); i >= 0 {
			ties[i] = -1
		}
	}
	for i, v := range sr {
		switch {
		case ties[i] < 0:
		case s.nearQueryVertex(v, opts.QueryVertices):
			ties[i] = -1
		case s.ordering == OrderVKCDegree:
			ties[i] = int32(g.Degree(v))
		case s.ordering == OrderQKC:
			ties[i] = int32(kq.Width() - kq.MemberMask(i).Count())
		}
		maxTie = max(maxTie, ties[i])
	}
	s.initKernel(ties, maxTie, memoBudget)
	s.stats.CandidateTime = time.Since(candStart)
	return s, nil
}

// prepare is every algorithm's preamble: it validates q against g and
// attrs, replaces a nil oracle with the index-free BFS oracle, and
// compiles the query keywords, timing the compile.
func prepare(g graph.Topology, attrs *keywords.Attributes, q Query, oracle index.Oracle) (*keywords.Query, index.Oracle, time.Duration, error) {
	if err := q.Validate(); err != nil {
		return nil, nil, 0, err
	}
	if attrs.NumVertices() != g.NumVertices() {
		return nil, nil, 0, fmt.Errorf("core: attributes cover %d vertices, graph has %d",
			attrs.NumVertices(), g.NumVertices())
	}
	if oracle == nil {
		oracle = index.NewBFSOracle(g)
	}
	start := time.Now()
	kq, err := keywords.CompileQuery(attrs, q.Keywords)
	return kq, oracle, time.Since(start), err
}

// nearQueryVertex reports whether v is within K of a query vertex,
// counting the oracle calls, and v's removal when it is.
func (s *searcher) nearQueryVertex(v graph.Vertex, qvs []graph.Vertex) bool {
	for _, qv := range qvs {
		s.stats.DistanceChecks++
		if s.oracle.Within(qv, v, s.q.K) {
			s.stats.Filtered++
			return true
		}
	}
	return false
}

// reset readies the searcher for a fresh search over rem[0]: an empty
// heap, zeroed stats and a new deadline. The kernel and the memo stay.
func (s *searcher) reset() {
	s.heap = newTopN(s.q.N)
	s.stats = Stats{
		DepthNodes:    make([]int64, s.q.P+1),
		DepthPruned:   make([]int64, s.q.P+1),
		DepthFiltered: make([]int64, s.q.P+1),
	}
	if s.maxDuration > 0 {
		s.deadline = time.Now().Add(s.maxDuration)
	}
	s.checkAbort = s.maxDuration > 0 || s.ctx != nil
}

// search runs the branch-and-bound over the root candidates in rem[0]:
// it ranks them, then explores. Search and SearchPartial run it once,
// SearchDiverse once per result group over one kernel and memo.
func (s *searcher) search() {
	candStart := time.Now()
	s.frontier = popcount(s.rem[0])
	s.tally(0)
	s.stats.CandidateTime += time.Since(candStart)
	if s.probe != nil {
		// Owned depth-0 iterations: the root loop runs for i in
		// [0, frontier-P], and a partial search strides it by its slice.
		owned := max(s.frontier-s.q.P+1, 0)
		if s.slice != nil {
			owned = max(owned-s.slice.Index+s.slice.Count-1, 0) / s.slice.Count
		}
		s.probe.begin()
		s.probe.setFrontier(owned, s.frontier)
	}

	exploreStart := time.Now()
	// A context cancelled before exploration starts skips it outright —
	// the throttled in-loop checks would otherwise admit up to a few
	// hundred nodes first.
	if s.ctx != nil && s.ctx.Err() != nil {
		s.ctxErr = s.ctx.Err()
		s.budgetHit = true
		s.probe.abort(s.abortCause(), 0)
	} else {
		s.explore(0, s.frontier)
	}
	s.stats.ExploreTime = time.Since(exploreStart)
	s.probe.endSearch(s.stats, s.kq.Width())
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

// candidate is one ranked member of S_R.
type candidate struct {
	id  int32 // local id
	key int32 // VKC count (or static coverage count under OrderQKC)
}

type searcher struct {
	q           Query
	kq          *keywords.Query
	oracle      index.Oracle
	ordering    Ordering
	pruning     bool
	uncapped    bool
	maxNodes    int64
	maxDuration time.Duration
	deadline    time.Time
	ctx         context.Context
	checkAbort  bool // maxDuration > 0 || ctx != nil
	ctxErr      error
	probe       *Probe

	heap  *topN
	stats Stats
	si    []graph.Vertex

	// The kernel works on bitsets over dense local ids of S_R, `words`
	// words each; verts maps the ids back to vertices. holders keeps one
	// bitset per query keyword, of the ids that carry it, so VKC counts
	// are popcount arithmetic. Per depth d: rem[d] holds the node's
	// not-yet-expanded candidates, cover[d] the keywords S_I covers
	// (cover[0] stays empty) and list[d] the node's ranked candidates.
	// counts and planes are the counting sort's per-key buckets and
	// bit-sliced key digits.
	verts   []graph.Vertex
	words   int
	holders []uint64
	rem     [][]uint64
	cover   [][]uint64
	list    [][]candidate
	counts  []int
	planes  []uint64
	memo    memo

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

// initKernel assigns local ids to the S_R members with a tie key, at
// most maxTie, by ascending key and then position (a counting sort), and
// allocates the per-depth bitsets, the keyword holder sets (filled from
// the members' masks) and the distance memo.
func (s *searcher) initKernel(ties []int32, maxTie int32, memoBudget int) {
	next := make([]int32, maxTie+2)
	for _, t := range ties {
		if t >= 0 {
			next[t+1]++
		}
	}
	for t := 1; t < len(next); t++ {
		next[t] += next[t-1]
	}
	n, width, p := int(next[maxTie+1]), s.kq.Width(), s.q.P
	words, kw := (n+63)>>6, (width+63)>>6
	sr, verts, holders := s.kq.Members(), make([]graph.Vertex, n), make([]uint64, width*words)
	for i, t := range ties {
		if t < 0 {
			continue
		}
		id := int(next[t])
		next[t]++
		verts[id] = sr[i]
		for w, m := range s.kq.MemberMask(i).Words() {
			for ; m != 0; m &= m - 1 {
				j := w<<6 | bits.TrailingZeros64(m)
				holders[j*words+id>>6] |= 1 << (id & 63)
			}
		}
	}
	s.verts, s.words, s.holders = verts, words, holders
	s.rem = make([][]uint64, p+1)
	s.cover = make([][]uint64, p+1)
	remWords := make([]uint64, (p+1)*words)
	coverWords := make([]uint64, (p+1)*kw)
	for d := 0; d <= p; d++ {
		s.rem[d] = remWords[d*words : (d+1)*words]
		s.cover[d] = coverWords[d*kw : (d+1)*kw]
	}
	for id := 0; id < n; id += 64 {
		s.rem[0][id>>6] = ^uint64(0) >> max(id+64-n, 0)
	}
	s.list = make([][]candidate, p)
	s.counts = make([]int, width+1)
	s.planes = make([]uint64, bits.Len(uint(width)))
	s.memo = newMemo(n, memoBudget)
}

// aborted reports whether the wall-clock deadline has passed or the
// context has been cancelled, remembering the context error for the
// final result. Callers gate it behind checkAbort plus a counter mask,
// so the hot path pays at most one branch per node.
func (s *searcher) aborted() bool {
	if s.maxDuration > 0 && time.Now().After(s.deadline) {
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

// explore expands one branch-and-bound node: si (the intermediate group
// S_I) has `depth` members jointly covering cover[depth], and rem[depth]
// holds the `size` remaining candidates S_R, all k-line-compatible with
// every member of S_I. Unless the node cannot fill S_I, tally has just
// counted their keys. A complete group's node (depth P) has no
// candidates: its last member is never k-line filtered against S_R.
func (s *searcher) explore(depth, size int) {
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
	covered := s.cover[depth]
	secured := popcount(covered)
	need := s.q.P - depth
	if need == 0 {
		s.stats.Feasible++
		s.offer(secured)
		return
	}
	if size < need {
		return
	}
	// The loop's first Theorem 2 check needs only the top `need` keys,
	// which the histogram already holds; most nodes stop there, before
	// their candidates are placed in rank order. A partial search may
	// skip the first roots, so the root always places.
	if depth > 0 && s.pruning && s.cut(secured+s.topKeys(need), depth) {
		return
	}
	cands := s.place(depth, size)
	rem, child := s.rem[depth], s.rem[depth+1]
	childCover := s.cover[depth+1]
	for i := 0; i+need <= len(cands); i++ {
		v := cands[i]
		rem[v.id>>6] &^= 1 << (v.id & 63) // rem is now cands[i+1:]
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
			// Keys are sorted descending, so the bound is monotone in
			// i and the loop can stop outright rather than skip.
			ub := secured
			for j := i; j < i+need; j++ {
				ub += int(cands[j].key)
			}
			if s.cut(ub, depth) {
				break
			}
		}

		copy(childCover, covered)
		for j := 0; j < s.kq.Width(); j++ {
			if s.holders[j*s.words+int(v.id>>6)]&(1<<(v.id&63)) != 0 {
				childCover[j>>6] |= 1 << (j & 63)
			}
		}
		// k-line filtering (Theorem 3): drop the candidates within K of
		// v, one word of the bitset at a time. A complete group's node
		// never reads its candidates, so v's row is not filled when it
		// is the last member.
		left := 0
		if need > 1 {
			near := s.nearOf(int(v.id), rem)
			if near == nil {
				s.budgetHit = true
				s.probe.abort(s.abortCause(), depth)
				return
			}
			filtered := 0
			for w, r := range rem {
				filtered += bits.OnesCount64(r & near[w])
				child[w] = r &^ near[w]
				left += bits.OnesCount64(child[w])
			}
			s.stats.Filtered += int64(filtered)
			s.stats.DepthFiltered[depth] += int64(filtered)
			// A node too short to fill S_I never reads its candidates.
			if left >= need-1 {
				s.tally(depth + 1)
			}
		}

		s.si = append(s.si, s.verts[v.id])
		s.explore(depth+1, left)
		s.si = s.si[:len(s.si)-1]
		if s.budgetHit {
			return
		}
		if depth == 0 && s.probe != nil {
			s.probe.rootDone()
		}
	}
}

// cut applies Theorem 2 to an upper bound ub on the coverage of every
// group the node can still form, counting a prune when the bound cannot
// beat the N-th best coverage. Group coverage can never exceed |W_Q|, so
// the bound is capped there unless the paper's literal bound was asked
// for — once N full-coverage groups are held, the whole remaining
// frontier collapses.
func (s *searcher) cut(ub, depth int) bool {
	if !s.uncapped {
		ub = min(ub, s.kq.Width())
	}
	if ub > s.heap.Threshold() {
		return false
	}
	s.stats.Pruned++
	s.stats.DepthPruned[depth]++
	return true
}

// nearOf returns v's distance-memo row with a decided near bit for every
// member of rem. Only pairs that no row has decided yet reach the
// oracle, so each unordered pair is asked at most once per search while
// the memo is within budget. The deadline and the context are re-checked
// every few hundred oracle calls, since one fill over a wide S_R with a
// slow oracle can dwarf the per-node check. It returns nil when the
// search must stop.
func (s *searcher) nearOf(v int, rem []uint64) []uint64 {
	row := s.memo.row(v)
	known, near := row[:s.memo.words], row[s.memo.words:]
	for w, r := range rem {
		for open := r &^ known[w]; open != 0; open &= open - 1 {
			b := bits.TrailingZeros64(open)
			u := w<<6 | b
			decided, within := s.memo.decided(u, v)
			if !decided {
				s.stats.DistanceChecks++
				if s.checkAbort && s.stats.DistanceChecks&deadlineOracleMask == 0 && s.aborted() {
					return nil
				}
				within = s.oracle.Within(s.verts[v], s.verts[u], s.q.K)
			}
			known[w] |= 1 << b
			if within {
				near[w] |= 1 << b
			}
		}
	}
	return near
}

// The candidates of a node are ranked by descending key, then ascending
// local id, with a stable two-pass counting sort over keys 0..|W_Q|:
// tally counts the keys of rem[depth] into the histogram, and place
// lays the candidates out in rank order. The key is the VKC count
// w.r.t. cover[depth], or the static coverage count under OrderQKC,
// whose local ids already follow it. Both passes read the keys of 64
// candidates at a time off bit-sliced digits.
func (s *searcher) keyCover(depth int) []uint64 {
	if s.ordering == OrderQKC {
		return s.cover[0]
	}
	return s.cover[depth]
}

func (s *searcher) tally(depth int) {
	cover := s.keyCover(depth)
	counts, planes := s.keyRange(cover)
	clear(s.counts)
	for w, word := range s.rem[depth] {
		if word == 0 {
			continue
		}
		s.digits(planes, word, w, cover)
		for k := range counts {
			counts[k] += bits.OnesCount64(keyed(planes, word, k))
		}
	}
}

// keyRange returns the histogram buckets and digit planes that keys
// w.r.t. cover can reach: no key exceeds the uncovered keyword count.
func (s *searcher) keyRange(cover []uint64) ([]int, []uint64) {
	maxKey := s.kq.Width() - popcount(cover)
	return s.counts[:maxKey+1], s.planes[:bits.Len(uint(maxKey))]
}

// topKeys sums the `need` largest keys of the histogram.
func (s *searcher) topKeys(need int) int {
	sum := 0
	for k := len(s.counts) - 1; k > 0 && need > 0; k-- {
		c := min(s.counts[k], need)
		sum += c * k
		need -= c
	}
	return sum
}

func (s *searcher) place(depth, size int) []candidate {
	cover := s.keyCover(depth)
	counts, planes := s.keyRange(cover)
	start := 0
	for k := len(counts) - 1; k >= 0; k-- {
		start, counts[k] = start+counts[k], start
	}
	out := s.list[depth]
	if cap(out) < size {
		out = make([]candidate, size)
		s.list[depth] = out
	}
	out = out[:size]
	for w, word := range s.rem[depth] {
		if word == 0 {
			continue
		}
		s.digits(planes, word, w, cover)
		for k := range counts {
			for m := keyed(planes, word, k); m != 0; m &= m - 1 {
				out[counts[k]] = candidate{id: int32(w<<6 | bits.TrailingZeros64(m)), key: int32(k)}
				counts[k]++
			}
		}
	}
	return out
}

// digits counts, for each candidate in word w of a set (its bits given
// by word), the query keywords outside cover it carries: bit b of
// planes[p] becomes bit p of the count for local id 64w+b, summed by a
// ripple-carry adder over the keywords' holder sets.
func (s *searcher) digits(planes []uint64, word uint64, w int, cover []uint64) {
	clear(planes)
	for j := 0; j < s.kq.Width(); j++ {
		if cover[j>>6]&(1<<(j&63)) != 0 {
			continue
		}
		carry := word & s.holders[j*s.words+w]
		for p := 0; carry != 0; p++ {
			planes[p], carry = planes[p]^carry, planes[p]&carry
		}
	}
}

// keyed returns the candidates of word whose digits spell key k.
func keyed(planes []uint64, word uint64, k int) uint64 {
	for p, plane := range planes {
		if k>>p&1 != 0 {
			word &= plane
		} else {
			word &^= plane
		}
	}
	return word
}

func popcount(set []uint64) int {
	c := 0
	for _, w := range set {
		c += bits.OnesCount64(w)
	}
	return c
}

// offer submits the current S_I as a feasible group. Under a partial
// search, accepted offers are also appended to the replay stream.
func (s *searcher) offer(coverage int) {
	if coverage <= s.heap.Threshold() {
		return // the heap keeps first-found groups on ties
	}
	members := append([]graph.Vertex(nil), s.si...)
	slices.Sort(members)
	s.heap.Offer(members, coverage)
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
