package ktg

import (
	"context"
	"errors"
	"log/slog"
	"slices"
	"sort"
	"time"

	"ktg/internal/core"
	"ktg/internal/index"
	"ktg/internal/keywords"
)

// Query carries the KTG query parameters ⟨W_Q, p, k, N⟩.
type Query struct {
	// Keywords is the query keyword set W_Q. Keywords absent from the
	// network still count toward |W_Q| (they are covered by nobody),
	// matching the paper where W_Q comes from the document under
	// review, not from the network.
	Keywords []string
	// GroupSize is p, the exact number of members per group.
	GroupSize int
	// Tenuity is k: every pair of members must be more than k hops
	// apart (the group is a k-distance group).
	Tenuity int
	// TopN is N, the number of groups to return.
	TopN int
}

// Algorithm selects the search strategy.
type Algorithm int

const (
	// AlgVKCDeg is KTG-VKC-DEG, the paper's fastest exact algorithm:
	// valid-keyword-coverage ordering with an ascending-degree
	// tie-break. The zero value and the recommended default.
	AlgVKCDeg Algorithm = iota
	// AlgVKC is KTG-VKC (Algorithm 1): valid-keyword-coverage ordering.
	AlgVKC
	// AlgQKC is the KTG-QKC variant: static query-keyword-coverage
	// ordering, no re-sorting.
	AlgQKC
	// AlgBruteForce enumerates all size-p combinations. Exact but
	// exponential; use only on small networks or for verification.
	AlgBruteForce
)

// String names the algorithm as in the paper.
func (a Algorithm) String() string {
	switch a {
	case AlgVKCDeg:
		return "KTG-VKC-DEG"
	case AlgVKC:
		return "KTG-VKC"
	case AlgQKC:
		return "KTG-QKC"
	case AlgBruteForce:
		return "BruteForce"
	default:
		return "Algorithm(?)"
	}
}

// SearchOptions tunes a Search.
type SearchOptions struct {
	// Algorithm picks the search strategy (default AlgVKCDeg).
	Algorithm Algorithm
	// Index answers social-distance checks; nil uses the index-free
	// BFS baseline. Build one with Network.BuildNL or
	// Network.BuildNLRNL for repeated querying.
	Index DistanceIndex
	// DisableKeywordPruning turns off the branch-and-bound coverage
	// bound (for ablation measurements only).
	DisableKeywordPruning bool
	// UncappedPruneBound reproduces the paper's literal Theorem 2
	// bound. By default the bound is additionally capped at |W_Q|,
	// which is usually much faster and equally exact; enable this only
	// to reproduce the paper's cost model.
	UncappedPruneBound bool
	// MaxNodes bounds the branch-and-bound effort; 0 means unlimited.
	// When exceeded, Search returns the best groups found so far
	// together with ErrBudgetExhausted.
	MaxNodes int64
	// MaxDuration bounds the search wall-clock time; 0 means
	// unlimited. When exceeded, Search returns the best groups found
	// so far together with ErrBudgetExhausted.
	MaxDuration time.Duration
	// Context cancels the search from outside (request abandoned,
	// Ctrl-C, server shutdown). It is consulted in the same throttled
	// hot-path slots as MaxDuration; on cancellation Search returns the
	// best groups found so far together with an error wrapping
	// ctx.Err() (test with errors.Is against context.Canceled or
	// context.DeadlineExceeded). nil means no cancellation.
	Context context.Context
	// ExcludeMembers are vertices banned from all result groups.
	ExcludeMembers []Vertex
	// QueryVertices are "the authors": vertices whose social circle
	// must not review them. Every candidate within Tenuity hops of a
	// query vertex is removed before the search.
	QueryVertices []Vertex
	// Probe collects a per-query explain plan (bound trajectory,
	// per-depth prune/filter breakdown) and publishes lock-free live
	// progress snapshots. nil disables collection at the cost of one
	// branch per node. Allocate a fresh Probe per query; after the
	// search returns, read probe.Explain().
	Probe *Probe
	// Logger overrides the Network and package-default loggers for this
	// search. nil inherits.
	Logger *slog.Logger
}

// ErrBudgetExhausted reports that MaxNodes was reached; the returned
// result holds the best groups found within the budget.
var ErrBudgetExhausted = core.ErrBudgetExhausted

// Group is one result group.
type Group struct {
	// Members in increasing vertex-id order.
	Members []Vertex
	// Covered lists the query keywords the members jointly cover.
	// Groups of one result that cover the same keywords share this
	// slice; treat it as read-only.
	Covered []string
	// QKC is the group's query keyword coverage in [0, 1]
	// (|Covered| / |W_Q|).
	QKC float64
}

// SearchStats reports search effort. The JSON field names are stable;
// ktgquery -stats-json emits this struct verbatim.
type SearchStats struct {
	// Nodes is the number of branch-and-bound nodes explored.
	Nodes int64 `json:"nodes"`
	// Pruned counts subtrees cut by keyword pruning.
	Pruned int64 `json:"pruned"`
	// Filtered counts candidates removed by k-line filtering.
	Filtered int64 `json:"filtered"`
	// DistanceChecks counts calls to the distance index. The exact
	// searches ask it about each pair of candidates at most once per
	// search, while their distance memo stays within its 8 MiB budget.
	DistanceChecks int64 `json:"distance_checks"`
	// Feasible counts complete size-p groups evaluated.
	Feasible int64 `json:"feasible"`
	// CompileTime, CandidateTime, and ExploreTime break the search's
	// wall clock into its phases: query keyword compilation, initial
	// candidate-set construction, and branch-and-bound exploration.
	CompileTime   time.Duration `json:"compile_ns"`
	CandidateTime time.Duration `json:"candidate_ns"`
	ExploreTime   time.Duration `json:"explore_ns"`
	// DepthNodes, DepthPruned, and DepthFiltered histogram the search
	// effort by depth: index d counts events at nodes whose
	// intermediate group holds d members (index GroupSize marks
	// complete groups). Empty for algorithms without a depth notion.
	DepthNodes    []int64 `json:"depth_nodes,omitempty"`
	DepthPruned   []int64 `json:"depth_pruned,omitempty"`
	DepthFiltered []int64 `json:"depth_filtered,omitempty"`
}

// Result is the output of a KTG search.
type Result struct {
	// Groups holds at most TopN groups in descending coverage order.
	Groups []Group
	// Stats reports search effort.
	Stats SearchStats
}

// Search answers a KTG query on the network. If fewer than TopN feasible
// groups exist, all of them are returned; an infeasible query yields an
// empty result, not an error.
func (n *Network) Search(q Query, opts SearchOptions) (*Result, error) {
	cq, copts := n.lower(q, opts)
	var (
		res *core.Result
		err error
	)
	start := time.Now()
	if opts.Algorithm == AlgBruteForce {
		res, err = core.BruteForce(n.g, n.attrs, cq, copts)
	} else {
		res, err = core.Search(n.g, n.attrs, cq, copts)
	}
	if res == nil {
		return nil, err
	}
	recordSearch(time.Since(start), res.Stats, errors.Is(err, ErrBudgetExhausted))
	return n.lift(res, q.Keywords), err
}

// DiverseOptions tunes a SearchDiverse.
type DiverseOptions struct {
	// SearchOptions configures the per-group searches (DKTG-Greedy
	// runs KTG-VKC-DEG by default).
	SearchOptions
	// Gamma weighs minimum coverage against diversity in the total
	// score, in [0, 1]. The paper's case study uses 0.5.
	Gamma float64
}

// DiverseResult is the output of a DKTG search.
type DiverseResult struct {
	// Groups are pairwise-disjoint, in discovery order; the first
	// attains the globally optimal coverage.
	Groups []Group
	// Diversity is the mean pairwise Jaccard distance (1 = disjoint).
	Diversity float64
	// MinQKC is the smallest group coverage.
	MinQKC float64
	// Score is γ·MinQKC + (1-γ)·Diversity.
	Score float64
	// Stats aggregates effort across the per-group searches.
	Stats SearchStats
}

// SearchDiverse answers a DKTG query with the paper's DKTG-Greedy
// algorithm: top groups are found one at a time and their members are
// removed from the pool, so the returned groups never share members.
func (n *Network) SearchDiverse(q Query, opts DiverseOptions) (*DiverseResult, error) {
	cq, copts := n.lower(q, opts.SearchOptions)
	start := time.Now()
	dr, err := core.SearchDiverse(n.g, n.attrs, cq, core.DiverseOptions{
		Options: copts,
		Gamma:   opts.Gamma,
	})
	if dr == nil {
		return nil, err
	}
	recordSearch(time.Since(start), dr.Stats, errors.Is(err, ErrBudgetExhausted))
	out := &DiverseResult{
		Diversity: dr.Diversity,
		MinQKC:    dr.MinQKC,
		Score:     dr.Score,
		Stats:     liftStats(dr.Stats),
	}
	out.Groups = n.liftGroups(dr.Groups, dr.QueryWidth, q.Keywords)
	return out, err
}

// SearchGreedy answers a KTG query approximately with a single greedy
// pass per group (no backtracking): from each seed vertex it repeatedly
// adds the compatible candidate with the highest valid keyword coverage.
// Returned groups always satisfy every KTG constraint, but their
// coverage may fall short of the exact optimum. seeds limits how many
// starting vertices are tried (0 = 4×TopN). Use it when exact search is
// too slow and a small coverage gap is acceptable.
func (n *Network) SearchGreedy(q Query, idx DistanceIndex, seeds int) (*Result, error) {
	return n.SearchGreedyWith(q, SearchOptions{Index: idx}, seeds)
}

// SearchGreedyWith is SearchGreedy with full options: opts.Index,
// opts.Context, opts.Probe, and opts.Logger are honored (the other
// fields only apply to the exact algorithms). On cancellation the
// groups completed so far are returned together with an error wrapping
// ctx.Err().
func (n *Network) SearchGreedyWith(q Query, opts SearchOptions, seeds int) (*Result, error) {
	cq, copts := n.lower(q, opts)
	gopts := core.GreedyOptions{
		Seeds:   seeds,
		Context: opts.Context,
		Logger:  copts.Logger,
		Probe:   opts.Probe,
	}
	if opts.Index != nil {
		gopts.Oracle = opts.Index
	}
	start := time.Now()
	res, err := core.Greedy(n.g, n.attrs, cq, gopts)
	if res == nil {
		return nil, err
	}
	recordSearch(time.Since(start), res.Stats, false)
	return n.lift(res, q.Keywords), err
}

// TAGQBaseline runs the TAGQ-style comparison baseline of the paper's
// case study: coverage-greedy groups under a k-tenuity ratio budget
// instead of a hard k-distance constraint, with no per-member coverage
// requirement. budget is the allowed fraction of close member pairs
// (0 applies the default 0.34).
func (n *Network) TAGQBaseline(q Query, budget float64, idx DistanceIndex) (*Result, error) {
	cq, _ := n.lower(q, SearchOptions{})
	res, err := core.TAGQ(n.g, n.attrs, cq, core.TAGQOptions{Oracle: idx, TenuityBudget: budget})
	if err != nil {
		return nil, err
	}
	return n.lift(res, q.Keywords), nil
}

// lower converts public query/options to their core equivalents.
func (n *Network) lower(q Query, opts SearchOptions) (core.Query, core.Options) {
	cq := core.Query{
		Keywords: keywords.QueryIDsForNames(n.attrs, q.Keywords),
		P:        q.GroupSize,
		K:        q.Tenuity,
		N:        q.TopN,
	}
	var ordering core.Ordering
	switch opts.Algorithm {
	case AlgVKC:
		ordering = core.OrderVKC
	case AlgQKC:
		ordering = core.OrderQKC
	default:
		ordering = core.OrderVKCDegree
	}
	copts := core.Options{
		Ordering:              ordering,
		DisableKeywordPruning: opts.DisableKeywordPruning,
		UncappedPruneBound:    opts.UncappedPruneBound,
		MaxNodes:              opts.MaxNodes,
		MaxDuration:           opts.MaxDuration,
		Context:               opts.Context,
		ExcludeVertices:       opts.ExcludeMembers,
		QueryVertices:         opts.QueryVertices,
		Probe:                 opts.Probe,
	}
	if opts.Index != nil {
		copts.Oracle = opts.Index
	}
	// Logger resolution: per-search beats per-Network beats the package
	// default (applied inside core via obs.Or).
	copts.Logger = opts.Logger
	if copts.Logger == nil {
		copts.Logger = n.logger
	}
	return cq, copts
}

func (n *Network) lift(res *core.Result, queryKeywords []string) *Result {
	return &Result{
		Groups: n.liftGroups(res.Groups, res.QueryWidth, queryKeywords),
		Stats:  liftStats(res.Stats),
	}
}

// liftGroups converts a result's groups. Groups that cover the same
// keywords share one Covered slice: the top groups of a query usually
// cover the same keywords, and callers such as caches and load
// generators keep results, so one copy per group adds up.
func (n *Network) liftGroups(groups []core.Group, width int, queryKeywords []string) []Group {
	if len(groups) == 0 {
		return nil
	}
	out := make([]Group, len(groups))
	var distinct [][]string
	for i, g := range groups {
		out[i] = n.liftGroup(g, width, queryKeywords)
		shared := false
		for _, c := range distinct {
			if slices.Equal(c, out[i].Covered) {
				out[i].Covered, shared = c, true
				break
			}
		}
		if !shared {
			distinct = append(distinct, out[i].Covered)
		}
	}
	return out
}

func (n *Network) liftGroup(g core.Group, width int, queryKeywords []string) Group {
	have := map[string]bool{}
	for _, v := range g.Members {
		for _, kw := range n.attrs.KeywordNames(v) {
			have[kw] = true
		}
	}
	seen := map[string]bool{}
	for _, kw := range queryKeywords {
		if have[kw] {
			seen[kw] = true
		}
	}
	// Sized exactly: callers keep results.
	var covered []string
	if len(seen) > 0 {
		covered = make([]string, 0, len(seen))
	}
	for kw := range seen {
		covered = append(covered, kw)
	}
	sort.Strings(covered)
	return Group{
		Members: append([]Vertex(nil), g.Members...),
		Covered: covered,
		QKC:     g.QKC(width),
	}
}

func liftStats(s core.Stats) SearchStats {
	return SearchStats{
		Nodes:          s.Nodes,
		Pruned:         s.Pruned,
		Filtered:       s.Filtered,
		DistanceChecks: s.OracleCalls,
		Feasible:       s.Feasible,
		CompileTime:    s.CompileTime,
		CandidateTime:  s.CandidateTime,
		ExploreTime:    s.ExploreTime,
		DepthNodes:     append([]int64(nil), s.DepthNodes...),
		DepthPruned:    append([]int64(nil), s.DepthPruned...),
		DepthFiltered:  append([]int64(nil), s.DepthFiltered...),
	}
}

// TenuityAudit quantifies how tenuous a set of members is: the number
// of pairs within k hops (k-lines), triples with all pairs within k
// hops (k-triangles), the k-tenuity ratio of Li et al., and the minimum
// pairwise hop distance (-1 when all pairs are disconnected). Groups
// returned by Search always audit to zero k-lines and MinDistance > k;
// use this to inspect groups from other sources (e.g. TAGQBaseline).
type TenuityAudit struct {
	K           int
	Pairs       int
	KLines      int
	KTriangles  int
	KTenuity    float64
	MinDistance int
}

// AuditTenuity measures the tenuity of an arbitrary member set. idx may
// be nil (BFS). Distances are resolved exactly up to maxHops.
func (n *Network) AuditTenuity(members []Vertex, k, maxHops int, idx DistanceIndex) TenuityAudit {
	var oracle index.Oracle
	if idx != nil {
		oracle = idx
	}
	rep := core.MeasureTenuity(n.g, members, k, maxHops, oracle)
	return TenuityAudit{
		K:           rep.K,
		Pairs:       rep.Pairs,
		KLines:      rep.KLines,
		KTriangles:  rep.KTriangles,
		KTenuity:    rep.KTenuity,
		MinDistance: rep.MinDistance,
	}
}

// CoveredKeywords returns the query keywords from q that the given
// members jointly cover, in q's order.
func (n *Network) CoveredKeywords(q Query, members []Vertex) []string {
	have := map[string]bool{}
	for _, v := range members {
		for _, kw := range n.attrs.KeywordNames(v) {
			have[kw] = true
		}
	}
	seen := map[string]bool{}
	var out []string
	for _, kw := range q.Keywords {
		if have[kw] && !seen[kw] {
			seen[kw] = true
			out = append(out, kw)
		}
	}
	sort.Strings(out)
	return out
}
