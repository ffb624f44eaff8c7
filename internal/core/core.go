// Package core implements the query algorithms of the KTG paper: the
// exact branch-and-bound searches KTG-QKC, KTG-VKC (Algorithm 1) and
// KTG-VKC-DEG with keyword pruning (Theorem 2) and k-line filtering
// (Theorem 3); the brute-force reference; the diversified DKTG-Greedy
// algorithm (Section VI); and a TAGQ-style baseline for the case study.
package core

import (
	"context"
	"fmt"
	"log/slog"
	"sort"
	"time"

	"ktg/internal/graph"
	"ktg/internal/index"
	"ktg/internal/keywords"
)

// Query carries the KTG query parameters ⟨W_Q, p, k, N⟩ of Definition 7.
type Query struct {
	// Keywords is the query keyword set W_Q (ids into the dataset's
	// vocabulary; duplicates are collapsed).
	Keywords []keywords.ID
	// P is the required group size.
	P int
	// K is the tenuity constraint: every pair of members must have
	// social distance strictly greater than K.
	K int
	// N is the number of result groups to return.
	N int
}

// Validate reports parameter errors.
func (q Query) Validate() error {
	switch {
	case len(q.Keywords) == 0:
		return fmt.Errorf("core: query needs at least one keyword")
	case q.P < 1:
		return fmt.Errorf("core: group size p must be positive, got %d", q.P)
	case q.K < 0:
		return fmt.Errorf("core: tenuity constraint k must be non-negative, got %d", q.K)
	case q.N < 1:
		return fmt.Errorf("core: result count N must be positive, got %d", q.N)
	}
	return nil
}

// Ordering selects how the branch-and-bound ranks candidates in S_R.
type Ordering int

const (
	// OrderVKC re-sorts candidates by valid keyword coverage at every
	// level (the KTG-VKC algorithm, Algorithm 1).
	OrderVKC Ordering = iota
	// OrderVKCDegree is OrderVKC with an ascending-degree tie-break:
	// among equally covering candidates, low-degree vertices conflict
	// with fewer others and complete feasible groups earlier (the
	// KTG-VKC-DEG algorithm).
	OrderVKCDegree
	// OrderQKC sorts candidates once by their static query keyword
	// coverage and never re-sorts (the paper's weaker KTG-QKC variant).
	OrderQKC
)

// String names the ordering as in the paper's algorithm labels.
func (o Ordering) String() string {
	switch o {
	case OrderVKC:
		return "VKC"
	case OrderVKCDegree:
		return "VKC-DEG"
	case OrderQKC:
		return "QKC"
	default:
		return fmt.Sprintf("Ordering(%d)", int(o))
	}
}

// Options configures a Search.
type Options struct {
	// Ordering picks the candidate ranking (default OrderVKCDegree).
	Ordering Ordering
	// Oracle answers social-distance bounds. nil falls back to the
	// index-free BFS oracle.
	Oracle index.Oracle
	// DisableKeywordPruning turns off the Theorem 2 bound, for
	// ablation studies. The search still terminates, just slower.
	DisableKeywordPruning bool
	// UncappedPruneBound uses the paper's literal Theorem 2 bound,
	// which sums candidate VKC values without capping at |W_Q|. The
	// default (capped) bound additionally recognizes that a group can
	// never cover more than |W_Q| keywords, which collapses the search
	// as soon as N full-coverage groups are held — often orders of
	// magnitude faster, and still exact. Enable the uncapped bound to
	// reproduce the paper's cost model (the experiment harness does).
	UncappedPruneBound bool
	// MaxNodes aborts the search after this many branch-and-bound
	// nodes (0 = unlimited). The partial result found so far is
	// returned along with ErrBudgetExhausted.
	MaxNodes int64
	// MaxDuration aborts the search after this much wall-clock time
	// (0 = unlimited), returning the best groups found so far along
	// with ErrBudgetExhausted. The deadline is checked every few
	// hundred nodes, so overshoot is tiny.
	MaxDuration time.Duration
	// Context cancels the search from outside: it is consulted in the
	// same throttled slots as MaxDuration (every few hundred nodes and
	// oracle calls), so an abandoned search stops burning CPU promptly.
	// On cancellation the best groups found so far are returned together
	// with an error wrapping ctx.Err(). nil disables the checks.
	Context context.Context
	// ExcludeVertices are removed from the candidate pool outright.
	// DKTG-Greedy uses this to keep result groups disjoint.
	ExcludeVertices []graph.Vertex
	// QueryVertices models the paper's multi-query-vertex extension
	// (Section IV "Discussion"): the authors of the paper under
	// review. Any candidate within distance K of a query vertex is
	// removed before the search starts.
	QueryVertices []graph.Vertex
	// Probe collects a per-query explain plan and publishes live
	// progress snapshots while the search runs. nil (the default)
	// disables collection; the hot path then pays one branch per node.
	// A probe is single-use: allocate a fresh one per query.
	Probe *Probe
	// Logger receives structured start/finish records for each search.
	// nil falls back to the obs package default (a no-op unless the
	// embedding application installed one).
	Logger *slog.Logger
}

// ErrBudgetExhausted is returned (wrapped) when MaxNodes is hit.
var ErrBudgetExhausted = fmt.Errorf("core: node budget exhausted")

// Group is one result group.
type Group struct {
	// Members are the group's vertices in increasing id order.
	Members []graph.Vertex
	// Coverage is the number of query keywords the members jointly
	// cover, |⋃(k_v ∩ W_Q)|.
	Coverage int
}

// QKC returns the group's query keyword coverage ratio given |W_Q|.
func (g Group) QKC(queryWidth int) float64 {
	return float64(g.Coverage) / float64(queryWidth)
}

// Stats reports search effort, used by the efficiency experiments and
// the pruning ablations.
type Stats struct {
	// Nodes is the number of branch-and-bound tree nodes explored.
	Nodes int64
	// Pruned counts subtrees cut by keyword pruning (Theorem 2).
	Pruned int64
	// Filtered counts candidates removed by k-line filtering (Theorem 3).
	Filtered int64
	// OracleCalls counts calls to the distance oracle. The exact
	// searches ask it about each unordered pair of candidates at most
	// once per search (while the distance memo is within its budget).
	OracleCalls int64
	// Feasible counts complete size-p groups evaluated.
	Feasible int64

	// Wall-clock breakdown of the search phases: query compilation,
	// initial candidate-set construction, and branch-and-bound
	// exploration.
	CompileTime   time.Duration
	CandidateTime time.Duration
	ExploreTime   time.Duration

	// Per-depth effort histograms: index d counts events at nodes whose
	// intermediate group S_I holds d members (so index P marks complete
	// groups). nil when the search never allocated them (e.g. rejected
	// queries).
	DepthNodes    []int64
	DepthPruned   []int64
	DepthFiltered []int64
}

// Add accumulates o into s, summing counters and timings and merging
// the per-depth histograms element-wise. SearchDiverse uses it to
// aggregate its per-group searches.
func (s *Stats) Add(o Stats) {
	s.Nodes += o.Nodes
	s.Pruned += o.Pruned
	s.Filtered += o.Filtered
	s.OracleCalls += o.OracleCalls
	s.Feasible += o.Feasible
	s.CompileTime += o.CompileTime
	s.CandidateTime += o.CandidateTime
	s.ExploreTime += o.ExploreTime
	s.DepthNodes = addDepth(s.DepthNodes, o.DepthNodes)
	s.DepthPruned = addDepth(s.DepthPruned, o.DepthPruned)
	s.DepthFiltered = addDepth(s.DepthFiltered, o.DepthFiltered)
}

func addDepth(dst, src []int64) []int64 {
	for len(dst) < len(src) {
		dst = append(dst, 0)
	}
	for i, v := range src {
		dst[i] += v
	}
	return dst
}

// Result is the output of a KTG search.
type Result struct {
	// Groups holds at most N groups in descending coverage order
	// (ties in first-found order). Fewer than N groups means the
	// constraints admit fewer feasible groups.
	Groups []Group
	// QueryWidth is |W_Q| after deduplication, the QKC denominator.
	QueryWidth int
	// Stats reports search effort.
	Stats Stats
}

// Best returns the highest coverage among the result groups, or 0.
func (r *Result) Best() int {
	if len(r.Groups) == 0 {
		return 0
	}
	return r.Groups[0].Coverage
}

// sortGroups orders groups by descending coverage, then ascending member
// ids for determinism.
func sortGroups(groups []Group) {
	sort.SliceStable(groups, func(i, j int) bool {
		if groups[i].Coverage != groups[j].Coverage {
			return groups[i].Coverage > groups[j].Coverage
		}
		return lessMembers(groups[i].Members, groups[j].Members)
	})
}

func lessMembers(a, b []graph.Vertex) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
