package core

import (
	"fmt"
	"sort"

	"ktg/internal/graph"
	"ktg/internal/keywords"
)

// CandidateSlice assigns one shard a strided slice of the depth-0
// candidate frontier: root position p belongs to slice Index iff
// p % Count == Index. Striding (rather than contiguous ranges) keeps
// every shard's workload statistically similar — the frontier is sorted
// by descending coverage key, so contiguous ranges would hand one shard
// all the expensive high-coverage roots.
type CandidateSlice struct {
	// Index identifies this slice, 0 ≤ Index < Count.
	Index int
	// Count is the total number of slices in the partition.
	Count int
}

// Validate reports slice parameter errors.
func (s CandidateSlice) Validate() error {
	switch {
	case s.Count < 1:
		return fmt.Errorf("core: slice count must be positive, got %d", s.Count)
	case s.Index < 0 || s.Index >= s.Count:
		return fmt.Errorf("core: slice index %d out of range [0,%d)", s.Index, s.Count)
	}
	return nil
}

// owns reports whether root frontier position p belongs to this slice.
func (s CandidateSlice) owns(p int) bool { return p%s.Count == s.Index }

// PartialOffer is one group accepted into a shard's local top-N heap,
// tagged with its position in the deterministic exploration order:
// RootPos is the group's depth-0 root index in the sorted frontier, Seq
// the acceptance sequence number within that root's subtree. Sorting all
// shards' offers by (RootPos, Seq) reconstructs the global chronological
// offer order of a single-node search, which is what makes MergePartials
// reproduce single-node results exactly, including first-found
// tie-breaking.
type PartialOffer struct {
	Group
	// RootPos is the depth-0 index of the subtree this group was found
	// in; RootPos % Slice.Count == Slice.Index always holds.
	RootPos int
	// Seq is the per-root local acceptance sequence number.
	Seq int
}

// PartialResult is one shard's mergeable search output. Offers is the
// replay stream MergePartials consumes; Groups is the shard's local
// top-N view (diagnostic — the merge never reads it). The stream is
// bounded: each acceptance after the heap fills strictly increases the
// heap's coverage sum, so len(Offers) ≤ N·(QueryWidth+1).
type PartialResult struct {
	// Slice is the frontier slice this shard explored.
	Slice CandidateSlice
	// FrontierSize is the total size of the depth-0 candidate frontier.
	// Every shard of a consistent partition must agree on it; a mismatch
	// means the shards hold different datasets (or query compilations)
	// and merging would be silently wrong.
	FrontierSize int
	// QueryWidth is |W_Q| after deduplication.
	QueryWidth int
	// Compiled is the compiled query the shard searched.
	Compiled *keywords.Query
	// Best is the highest coverage in the local heap (0 when empty).
	Best int
	// Threshold is the local C_max bound: the N-th best local coverage,
	// or -1 while the local heap is not full.
	Threshold int
	// Truncated reports that the shard stopped early (node budget,
	// deadline, or cancellation) and the offer stream may be incomplete.
	// A merge over any truncated part is not exact.
	Truncated bool
	// Offers is the ordered stream of locally-accepted heap offers.
	Offers []PartialOffer
	// Groups is the shard-local top-N in descending coverage order.
	Groups []Group
	// Stats reports this shard's search effort.
	Stats Stats
}

// SearchPartial runs the branch-and-bound over only the slice-assigned
// depth-0 roots of the candidate frontier, with identical ordering,
// pruning, filtering, and budget semantics to Search. The union of the
// slices 0..Count-1 covers every root exactly once; MergePartials over
// all Count results reproduces Search byte-for-byte.
//
// Like Search, budget exhaustion or cancellation returns the partial
// result found so far alongside a wrapped ErrBudgetExhausted or context
// error; the result's Truncated flag is set so merges report inexact.
func SearchPartial(g graph.Topology, attrs *keywords.Attributes, q Query, opts Options, slice CandidateSlice) (*PartialResult, error) {
	if err := slice.Validate(); err != nil {
		return nil, err
	}
	s, err := runWithMemo(g, attrs, q, opts, &slice, memoBudgetBytes)
	if err != nil {
		return nil, err
	}
	pr := &PartialResult{
		Slice:        slice,
		FrontierSize: s.frontier,
		QueryWidth:   s.kq.Width(),
		Compiled:     s.kq,
		Threshold:    s.heap.Threshold(),
		Truncated:    s.budgetHit,
		Offers:       s.offers,
		Groups:       s.heap.Groups(),
		Stats:        s.stats,
	}
	if len(pr.Groups) > 0 {
		pr.Best = pr.Groups[0].Coverage
	}
	return pr, s.finishErr()
}

// MergePartials combines shard results into a single Result holding the
// top n groups. The parts must come from the same query against the
// same dataset (equal slice Count, FrontierSize, and QueryWidth,
// distinct slice Index values) — any inconsistency is an error, never a
// silently wrong answer. n must match the N the shards searched with.
//
// exact reports whether the merge is provably identical to single-node
// Search: every slice of the partition present and no part truncated.
// Merging a surviving subset is still valid — every returned group is a
// feasible group with correct coverage — but better groups may be
// missing, so callers must surface the inexactness.
func MergePartials(n int, parts []*PartialResult) (res *Result, exact bool, err error) {
	if n < 1 {
		return nil, false, fmt.Errorf("core: merge result count N must be positive, got %d", n)
	}
	if len(parts) == 0 {
		return nil, false, fmt.Errorf("core: merge needs at least one partial result")
	}
	for _, p := range parts {
		if p == nil {
			return nil, false, fmt.Errorf("core: merge got a nil partial result")
		}
	}
	first := parts[0]
	count := first.Slice.Count
	seen := make(map[int]bool, len(parts))
	exact = true
	var offers []PartialOffer
	var stats Stats
	for _, p := range parts {
		if err := p.Slice.Validate(); err != nil {
			return nil, false, err
		}
		if p.Slice.Count != count {
			return nil, false, fmt.Errorf("core: merge mixes partition sizes %d and %d", count, p.Slice.Count)
		}
		if p.FrontierSize != first.FrontierSize {
			return nil, false, fmt.Errorf("core: partial results disagree on frontier size (%d vs %d): shards hold different datasets",
				first.FrontierSize, p.FrontierSize)
		}
		if p.QueryWidth != first.QueryWidth {
			return nil, false, fmt.Errorf("core: partial results disagree on query width (%d vs %d)",
				first.QueryWidth, p.QueryWidth)
		}
		if seen[p.Slice.Index] {
			return nil, false, fmt.Errorf("core: merge got slice %d/%d twice", p.Slice.Index, count)
		}
		seen[p.Slice.Index] = true
		for _, o := range p.Offers {
			if o.RootPos < 0 || o.RootPos >= p.FrontierSize || !p.Slice.owns(o.RootPos) {
				return nil, false, fmt.Errorf("core: offer at root %d does not belong to slice %d/%d",
					o.RootPos, p.Slice.Index, count)
			}
		}
		offers = append(offers, p.Offers...)
		stats.Add(p.Stats)
		if p.Truncated {
			exact = false
		}
	}
	if len(parts) != count {
		exact = false
	}
	// Replay the union of locally-accepted offers in global chronological
	// order through a fresh heap. A shard's local threshold never exceeds
	// the single-node threshold at the corresponding stream position (its
	// offer multiset is a subset of the global one plus groups from
	// subtrees single-node pruned, all of which sit at or below the
	// pruning-time threshold), so shards accept a superset of what
	// single-node accepts and the replay's accept/reject decisions — and
	// heap-internal displacement order — match single-node exactly.
	sort.Slice(offers, func(i, j int) bool {
		if offers[i].RootPos != offers[j].RootPos {
			return offers[i].RootPos < offers[j].RootPos
		}
		return offers[i].Seq < offers[j].Seq
	})
	h := newTopN(n)
	for _, o := range offers {
		h.Offer(o.Members, o.Coverage)
	}
	return &Result{
		Groups:     h.Groups(),
		QueryWidth: first.QueryWidth,
		Stats:      stats,
	}, exact, nil
}
