package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"ktg/internal/bitset"
	"ktg/internal/graph"
	"ktg/internal/index"
	"ktg/internal/keywords"
)

// The reference below is the branch-and-bound as it ran before the
// bitset kernel: one oracle call per surviving candidate at every node
// that still has members to add, and a comparison sort of the child
// list. The kernel must reproduce its groups, counters, per-depth rows
// and partial offer streams exactly.

type refCandidate struct {
	v   graph.Vertex
	key int32 // VKC count (or static coverage count under OrderQKC)
	deg int32 // vertex degree (only set under OrderVKCDegree)
}

type refSearcher struct {
	q        Query
	kq       *keywords.Query
	oracle   index.Oracle
	ordering Ordering
	pruning  bool
	uncapped bool
	heap     *topN
	stats    Stats
	si       []graph.Vertex
	candBuf  [][]refCandidate
	coverBuf []bitset.Set

	slice    *CandidateSlice
	frontier int
	offers   []PartialOffer
	curRoot  int
	rootSeq  int
}

// refSearch runs the reference over the whole frontier (slice == nil) or
// one strided slice of it.
func refSearch(t *testing.T, g graph.Topology, attrs *keywords.Attributes, q Query, opts Options, slice *CandidateSlice) *refSearcher {
	t.Helper()
	kq, err := keywords.CompileQuery(attrs, q.Keywords)
	if err != nil {
		t.Fatal(err)
	}
	oracle := opts.Oracle
	if oracle == nil {
		oracle = index.NewBFSOracle(g)
	}
	s := &refSearcher{
		q:        q,
		kq:       kq,
		oracle:   oracle,
		ordering: opts.Ordering,
		pruning:  !opts.DisableKeywordPruning,
		uncapped: opts.UncappedPruneBound,
		heap:     newTopN(q.N),
		slice:    slice,
		candBuf:  make([][]refCandidate, q.P),
		coverBuf: make([]bitset.Set, q.P+1),
	}
	for d := range s.coverBuf {
		s.coverBuf[d] = bitset.New(kq.Width())
	}
	s.stats.DepthNodes = make([]int64, q.P+1)
	s.stats.DepthPruned = make([]int64, q.P+1)
	s.stats.DepthFiltered = make([]int64, q.P+1)
	excluded := map[graph.Vertex]bool{}
	for _, v := range opts.ExcludeVertices {
		excluded[v] = true
	}
	var root []refCandidate
	for _, v := range kq.Candidates() {
		if excluded[v] {
			continue
		}
		nearQueryVertex := false
		for _, qv := range opts.QueryVertices {
			s.stats.DistanceChecks++
			if oracle.Within(qv, v, q.K) {
				nearQueryVertex = true
				break
			}
		}
		if nearQueryVertex {
			s.stats.Filtered++
			continue
		}
		c := refCandidate{v: v, key: int32(kq.CoverageCount(v))}
		if s.ordering == OrderVKCDegree {
			c.deg = int32(g.Degree(v))
		}
		root = append(root, c)
	}
	s.sortCandidates(root)
	s.frontier = len(root)
	s.explore(root, s.coverBuf[0], 0)
	return s
}

func (s *refSearcher) explore(cands []refCandidate, covered bitset.Set, depth int) {
	s.stats.Nodes++
	s.stats.DepthNodes[depth]++
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
			s.curRoot = i
			s.rootSeq = 0
		}
		if s.pruning {
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
		child := s.candBuf[depth][:0]
		// The last member completes the group, whose node reads no
		// candidates: nothing is filtered against it.
		rest := cands[i+1:]
		if need == 1 {
			rest = nil
		}
		for _, u := range rest {
			s.stats.DistanceChecks++
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
		s.candBuf[depth] = child
		s.si = append(s.si, v.v)
		s.explore(child, childCover, depth+1)
		s.si = s.si[:len(s.si)-1]
	}
}

func (s *refSearcher) offer(coverage int) {
	members := append([]graph.Vertex(nil), s.si...)
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	if !s.heap.Offer(members, coverage) {
		return
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

func (s *refSearcher) sortCandidates(cands []refCandidate) {
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.key != b.key {
			return a.key > b.key
		}
		if s.ordering == OrderVKCDegree && a.deg != b.deg {
			return a.deg < b.deg
		}
		return a.v < b.v
	})
}

// requireSameStats checks every deterministic counter against the
// reference. The kernel may only ask the oracle less often.
func requireSameStats(t *testing.T, label string, got, want Stats) {
	t.Helper()
	if got.Nodes != want.Nodes || got.Pruned != want.Pruned ||
		got.Filtered != want.Filtered || got.Feasible != want.Feasible {
		t.Fatalf("%s: nodes/pruned/filtered/feasible = %d/%d/%d/%d, reference %d/%d/%d/%d", label,
			got.Nodes, got.Pruned, got.Filtered, got.Feasible,
			want.Nodes, want.Pruned, want.Filtered, want.Feasible)
	}
	for _, h := range []struct {
		name      string
		got, want []int64
	}{
		{"DepthNodes", got.DepthNodes, want.DepthNodes},
		{"DepthPruned", got.DepthPruned, want.DepthPruned},
		{"DepthFiltered", got.DepthFiltered, want.DepthFiltered},
	} {
		if !reflect.DeepEqual(h.got, h.want) {
			t.Fatalf("%s: %s = %v, reference %v", label, h.name, h.got, h.want)
		}
	}
	if got.DistanceChecks > want.DistanceChecks {
		t.Fatalf("%s: %d oracle calls, reference %d", label, got.DistanceChecks, want.DistanceChecks)
	}
}

// requireMatchesReference runs Search and every 2- and 3-way
// SearchPartial slice under the given memo budget and compares each with
// the reference.
func requireMatchesReference(t *testing.T, label string, g graph.Topology, attrs *keywords.Attributes, q Query, opts Options, memoBudget int) {
	t.Helper()
	s, err := runWithMemo(g, attrs, q, opts, nil, memoBudget)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	ref := refSearch(t, g, attrs, q, opts, nil)
	if got, want := s.heap.Groups(), ref.heap.Groups(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: groups %v, reference %v", label, got, want)
	}
	requireSameStats(t, label, s.stats, ref.stats)
	requireNoLastMemberFilter(t, label, s.stats)
	for _, count := range []int{2, 3} {
		for idx := 0; idx < count; idx++ {
			slice := CandidateSlice{Index: idx, Count: count}
			sl := fmt.Sprintf("%s slice %d/%d", label, idx, count)
			s, err := runWithMemo(g, attrs, q, opts, &slice, memoBudget)
			if err != nil {
				t.Fatalf("%s: %v", sl, err)
			}
			ref := refSearch(t, g, attrs, q, opts, &slice)
			if s.frontier != ref.frontier {
				t.Fatalf("%s: frontier %d, reference %d", sl, s.frontier, ref.frontier)
			}
			if !reflect.DeepEqual(s.offers, ref.offers) {
				t.Fatalf("%s: offers %v, reference %v", sl, s.offers, ref.offers)
			}
			requireSameStats(t, sl, s.stats, ref.stats)
			requireNoLastMemberFilter(t, sl, s.stats)
		}
	}
}

// requireNoLastMemberFilter checks that no k-line removal was counted
// while S_I held P-1 members: the member that completes a group is never
// filtered against the remaining candidates.
func requireNoLastMemberFilter(t *testing.T, label string, st Stats) {
	t.Helper()
	if f := st.DepthFiltered; f[len(f)-2] != 0 {
		t.Fatalf("%s: DepthFiltered = %v, want 0 at depth P-1", label, f)
	}
}

// kernelVariants enumerates the three orderings × capped/uncapped bound ×
// pruning on/off.
func kernelVariants(base Options) []Options {
	var out []Options
	for _, ord := range []Ordering{OrderVKC, OrderVKCDegree, OrderQKC} {
		for _, uncapped := range []bool{false, true} {
			for _, noPrune := range []bool{false, true} {
				o := base
				o.Ordering = ord
				o.UncappedPruneBound = uncapped
				o.DisableKeywordPruning = noPrune
				out = append(out, o)
			}
		}
	}
	return out
}

// exhaustive reports whether the variant cuts (next to) nothing: with
// pruning off, or with QKC's static keys under the uncapped bound, the
// reference enumerates every group, so tests run those variants on small
// pools only.
func exhaustive(o Options) bool {
	return o.DisableKeywordPruning || (o.Ordering == OrderQKC && o.UncappedPruneBound)
}

func variantLabel(o Options) string {
	return fmt.Sprintf("%v uncapped=%v pruning=%v exclude=%v qv=%v",
		o.Ordering, o.UncappedPruneBound, !o.DisableKeywordPruning, o.ExcludeVertices, o.QueryVertices)
}

func TestKernelMatchesReferenceRandom(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		r := rand.New(rand.NewSource(seed))
		g, attrs, q := randomInstance(r)
		n := g.NumVertices()
		nlrnl, err := index.BuildNLRNL(g)
		if err != nil {
			t.Fatal(err)
		}
		bases := []Options{
			{Oracle: nlrnl},
			{ExcludeVertices: []graph.Vertex{graph.Vertex(r.Intn(n))},
				QueryVertices: []graph.Vertex{graph.Vertex(r.Intn(n))}},
		}
		for _, base := range bases {
			for _, o := range kernelVariants(base) {
				label := fmt.Sprintf("seed %d %s", seed, variantLabel(o))
				requireMatchesReference(t, label, g, attrs, q, o, memoBudgetBytes)
			}
		}
	}
}

// tieInstance is a circulant graph over n vertices (each joined to its
// neighbours at the given offsets, so every degree is equal) where every
// vertex carries the one query keyword: every ranking key ties, and the
// order rests entirely on the tie-breaks.
func tieInstance(n int, offsets ...int) (*graph.Graph, *keywords.Attributes, keywords.ID) {
	var edges [][2]graph.Vertex
	for v := 0; v < n; v++ {
		for _, off := range offsets {
			edges = append(edges, [2]graph.Vertex{graph.Vertex(v), graph.Vertex((v + off) % n)})
		}
	}
	g := graph.FromEdges(n, edges)
	a := keywords.NewAttributes(n, nil)
	for v := 0; v < n; v++ {
		a.Assign(graph.Vertex(v), "KW")
	}
	id, _ := a.Vocabulary().Lookup("KW")
	return g, a, id
}

func TestKernelMatchesReferenceTies(t *testing.T) {
	for _, tc := range []struct {
		n          int
		offsets    []int
		exhaustive bool // also run the variants that enumerate every group
	}{
		{70, []int{1}, true},
		{130, []int{1, 7}, false},
	} {
		g, attrs, kw := tieInstance(tc.n, tc.offsets...)
		for _, qp := range [][2]int{{2, 1}, {3, 2}, {3, 4}} {
			q := Query{Keywords: []keywords.ID{kw}, P: qp[0], K: qp[1], N: 4}
			bases := []Options{
				{},
				{ExcludeVertices: []graph.Vertex{3, 64, 65}, QueryVertices: []graph.Vertex{50}},
			}
			for _, base := range bases {
				for _, o := range kernelVariants(base) {
					if exhaustive(o) && (q.P > 2 || !tc.exhaustive) {
						continue
					}
					label := fmt.Sprintf("ring n=%d %v p=%d k=%d %s", tc.n, tc.offsets, q.P, q.K, variantLabel(o))
					requireMatchesReference(t, label, g, attrs, q, o, memoBudgetBytes)
				}
			}
		}
	}
}

func TestKernelMatchesReferencePreset(t *testing.T) {
	ds, idx, wl := brightkite(t)
	for qi := 0; qi < 2; qi++ {
		kws := wl.QueryKeywords(3 + qi)
		kq, err := keywords.CompileQuery(ds.Attrs, kws)
		if err != nil {
			t.Fatal(err)
		}
		sr := kq.Candidates()
		// The exhaustive variants enumerate every group over the
		// query's rarest keyword, a pool of a few dozen vertices.
		rare := kws[0]
		for _, kw := range kws {
			if keywordPool(t, ds.Attrs, kw) < keywordPool(t, ds.Attrs, rare) {
				rare = kw
			}
		}
		for _, o := range kernelVariants(Options{Oracle: idx}) {
			q := Query{Keywords: kws, P: 3, K: 3, N: 5}
			if exhaustive(o) {
				q = Query{Keywords: []keywords.ID{rare}, P: 3, K: 2, N: 5}
			}
			if qi == 1 {
				o.ExcludeVertices = []graph.Vertex{sr[0], sr[len(sr)/2]}
				o.QueryVertices = []graph.Vertex{sr[len(sr)/3]}
			}
			label := fmt.Sprintf("%s query %d %s", ds.Name, qi, variantLabel(o))
			requireMatchesReference(t, label, ds.Graph, ds.Attrs, q, o, memoBudgetBytes)
		}
	}
}

// keywordPool returns how many vertices carry the keyword.
func keywordPool(t *testing.T, attrs *keywords.Attributes, kw keywords.ID) int {
	t.Helper()
	kq, err := keywords.CompileQuery(attrs, []keywords.ID{kw})
	if err != nil {
		t.Fatal(err)
	}
	return len(kq.Candidates())
}

// TestKernelOverMemoBudget drives the scratch-row path: with no budget
// every row is scratch, with one chunk the memo fills and then
// overflows. Either way the search must match the reference.
func TestKernelOverMemoBudget(t *testing.T) {
	ds, idx, wl := brightkite(t)
	q := Query{Keywords: wl.QueryKeywords(6), P: 3, K: 3, N: 7}
	for _, budget := range []int{0, memoChunkBytes} {
		for _, ord := range []Ordering{OrderVKC, OrderVKCDegree} {
			o := Options{Oracle: idx, Ordering: ord, UncappedPruneBound: true}
			label := fmt.Sprintf("budget %d %v", budget, ord)
			s, err := runWithMemo(ds.Graph, ds.Attrs, q, o, nil, budget)
			if err != nil {
				t.Fatal(err)
			}
			if s.memo.scratch == nil || (len(s.memo.chunks) > 0) != (budget > 0) {
				t.Fatalf("%s: %d chunks kept, scratch row used: %v", label, len(s.memo.chunks), s.memo.scratch != nil)
			}
			requireMatchesReference(t, label, ds.Graph, ds.Attrs, q, o, budget)
		}
	}
	for seed := int64(0); seed < 40; seed++ {
		g, attrs, q := randomInstance(rand.New(rand.NewSource(seed)))
		for _, o := range kernelVariants(Options{}) {
			label := fmt.Sprintf("seed %d budget 0 %s", seed, variantLabel(o))
			requireMatchesReference(t, label, g, attrs, q, o, 0)
		}
	}
}

// pairOracle records how often each unordered pair reaches the index.
type pairOracle struct {
	inner index.Oracle
	asked map[[2]graph.Vertex]int
}

func (o *pairOracle) Within(u, v graph.Vertex, k int) bool {
	if u > v {
		u, v = v, u
	}
	o.asked[[2]graph.Vertex{u, v}]++
	return o.inner.Within(u, v, k)
}

func (o *pairOracle) Name() string { return "pairs-" + o.inner.Name() }

func (o *pairOracle) maxRepeat() int {
	m := 0
	for _, c := range o.asked {
		m = max(m, c)
	}
	return m
}

// TestKernelAsksEachPairOnce pins the memo's contract on a paper-exact
// query (|W_Q|=6, N=7, p=3, k=2): within one search every unordered
// pair reaches the index at most once, where the reference asks the
// same pair again at every node that expands one of its members.
func TestKernelAsksEachPairOnce(t *testing.T) {
	ds, idx, wl := brightkite(t)
	q := Query{Keywords: wl.QueryKeywords(6), P: 3, K: 2, N: 7}
	opts := Options{Oracle: idx, UncappedPruneBound: true}

	ref := &pairOracle{inner: idx, asked: map[[2]graph.Vertex]int{}}
	refOpts := opts
	refOpts.Oracle = ref
	refSearch(t, ds.Graph, ds.Attrs, q, refOpts, nil)
	if ref.maxRepeat() < 2 {
		t.Fatal("query too easy: the reference never repeats a pair")
	}

	for _, o := range kernelVariants(opts) {
		if exhaustive(o) {
			continue
		}
		rec := &pairOracle{inner: idx, asked: map[[2]graph.Vertex]int{}}
		o.Oracle = rec
		res, err := Search(ds.Graph, ds.Attrs, q, o)
		if err != nil {
			t.Fatal(err)
		}
		if m := rec.maxRepeat(); m > 1 {
			t.Fatalf("%s: a pair reached the index %d times (reference: up to %d)", variantLabel(o), m, ref.maxRepeat())
		}
		if int64(len(rec.asked)) != res.Stats.DistanceChecks {
			t.Fatalf("%s: %d pairs asked, Stats.DistanceChecks = %d", variantLabel(o), len(rec.asked), res.Stats.DistanceChecks)
		}
	}
}

// TestLastMemberIsNotFiltered pins that the member completing a group is
// never k-line filtered against the remaining candidates: at p=1 every
// member is the last one, so a search without query vertices asks the
// oracle nothing and removes nothing, whole or in any 2- or 3-way slice.
func TestLastMemberIsNotFiltered(t *testing.T) {
	ds, idx, wl := brightkite(t)
	q := Query{Keywords: wl.QueryKeywords(3), P: 1, K: 2, N: 5}
	kq, err := keywords.CompileQuery(ds.Attrs, q.Keywords)
	if err != nil {
		t.Fatal(err)
	}
	exclude := []graph.Vertex{kq.Candidates()[0]}
	for _, base := range []Options{{Oracle: idx}, {ExcludeVertices: exclude}} {
		for _, o := range kernelVariants(base) {
			label := variantLabel(o)
			r, err := Search(ds.Graph, ds.Attrs, q, o)
			if err != nil {
				t.Fatal(err)
			}
			runs := map[string]Stats{"search": r.Stats}
			for _, count := range []int{2, 3} {
				for i := 0; i < count; i++ {
					pr, err := SearchPartial(ds.Graph, ds.Attrs, q, o, CandidateSlice{Index: i, Count: count})
					if err != nil {
						t.Fatal(err)
					}
					runs[fmt.Sprintf("slice %d/%d", i, count)] = pr.Stats
				}
			}
			for run, st := range runs {
				if st.Nodes < 2 || st.DistanceChecks != 0 || st.Filtered != 0 {
					t.Fatalf("%s %s: nodes %d, distance checks %d, filtered %d; want no checks and no removals",
						label, run, st.Nodes, st.DistanceChecks, st.Filtered)
				}
			}
		}
	}
}

// FuzzKernelMatchesReference checks the kernel against the reference on
// random instances: the seed picks the instance, and the variant byte
// picks whether one excluded vertex and one query vertex are set (bit 0)
// and which of kernelVariants runs (the other bits, modulo their count).
//
//	go test ./internal/core -run '^$' -fuzz FuzzKernelMatchesReference -fuzztime 10s
func FuzzKernelMatchesReference(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed*5))
	}
	f.Fuzz(func(t *testing.T, seed int64, variant uint8) {
		r := rand.New(rand.NewSource(seed))
		g, attrs, q := randomInstance(r)
		var base Options
		if variant&1 != 0 {
			n := g.NumVertices()
			base.ExcludeVertices = []graph.Vertex{graph.Vertex(r.Intn(n))}
			base.QueryVertices = []graph.Vertex{graph.Vertex(r.Intn(n))}
		}
		variants := kernelVariants(base)
		o := variants[int(variant>>1)%len(variants)]
		label := fmt.Sprintf("seed %d %s", seed, variantLabel(o))
		requireMatchesReference(t, label, g, attrs, q, o, memoBudgetBytes)
	})
}
