package ktg

import (
	"fmt"
	"strconv"
	"strings"

	"ktg/internal/core"
)

// CandidateSlice assigns a strided slice of the search's depth-0
// candidate frontier to one shard: frontier position p belongs to slice
// Index iff p % Count == Index. Running SearchPartial once per slice of
// a partition and merging with MergePartials reproduces Search exactly.
type CandidateSlice = core.CandidateSlice

// PartialOffer is one group accepted into a shard's local top-N heap,
// tagged with its position in the deterministic exploration order. The
// tags let MergePartials replay the global offer stream and reproduce
// single-node results exactly, including tie-breaking. The JSON form,
// the group's fields followed by the tags, is the offer a
// /v1/query/partial answer carries.
type PartialOffer struct {
	Group
	// Coverage is the absolute number of query keywords covered (the
	// merge ranking key; QKC is this divided by the query width).
	Coverage int `json:"coverage"`
	// RootPos is the group's depth-0 root index in the sorted frontier.
	RootPos int `json:"root_pos"`
	// Seq is the acceptance sequence number within that root's subtree.
	Seq int `json:"seq"`
}

// PartialResult is one shard's mergeable search output.
type PartialResult struct {
	// Slice is the frontier slice this shard explored.
	Slice CandidateSlice
	// FrontierSize is the total depth-0 frontier size; shards of a
	// consistent partition must agree on it.
	FrontierSize int
	// QueryWidth is |W_Q| after deduplication.
	QueryWidth int
	// Best is the highest coverage in the local heap (0 when empty).
	Best int
	// Threshold is the local C_max bound (-1 while the heap isn't full).
	Threshold int
	// Truncated reports an early stop (budget, deadline, cancellation);
	// merges over truncated parts are flagged inexact.
	Truncated bool
	// Offers is the ordered stream of locally-accepted heap offers that
	// MergePartials replays.
	Offers []PartialOffer
	// Groups is the shard-local top-N view (diagnostic).
	Groups []Group
	// Stats reports this shard's search effort.
	Stats SearchStats
}

// SearchPartial answers the slice-assigned part of a KTG query: the
// branch-and-bound explores only the depth-0 roots owned by slice, with
// identical ordering, pruning, and budget semantics to Search. Only the
// exact branch-and-bound algorithms support partial execution;
// AlgBruteForce is rejected.
//
// Like Search, budget exhaustion or cancellation returns the partial
// result found so far alongside ErrBudgetExhausted (or the context
// error), with Truncated set.
func (n *Network) SearchPartial(q Query, opts SearchOptions, slice CandidateSlice) (*PartialResult, error) {
	if opts.Algorithm == AlgBruteForce {
		return nil, fmt.Errorf("ktg: brute force cannot run as a partial search")
	}
	cq, copts := n.lower(q, opts)
	done := n.observe(cq, opts, opts.Algorithm.String())
	pr, err := core.SearchPartial(n.g, n.attrs, cq, copts, slice)
	if pr == nil {
		return nil, err
	}
	done(pr.Stats, len(pr.Groups), err)
	out := &PartialResult{
		Slice:        slice,
		FrontierSize: pr.FrontierSize,
		QueryWidth:   pr.QueryWidth,
		Best:         pr.Best,
		Threshold:    pr.Threshold,
		Truncated:    pr.Truncated,
		Stats:        pr.Stats,
	}
	for _, o := range pr.Offers {
		out.Offers = append(out.Offers, PartialOffer{
			Group:    n.liftGroup(o.Group, pr.Compiled),
			Coverage: o.Coverage,
			RootPos:  o.RootPos,
			Seq:      o.Seq,
		})
	}
	for _, g := range pr.Groups {
		out.Groups = append(out.Groups, n.liftGroup(g, pr.Compiled))
	}
	return out, err
}

// MergePartials combines shard results into one Result holding the top
// topN groups, byte-identical to single-node Search when the partition
// is complete and untruncated (exact=true). It needs no Network:
// keyword names ride on the offers, so a coordinator holding no dataset
// can merge. Inconsistent parts (mixed partition sizes, disagreeing
// frontiers — i.e. shards serving different datasets) are an error,
// never a silently wrong answer.
func MergePartials(topN int, parts []*PartialResult) (res *Result, exact bool, err error) {
	cparts := make([]*core.PartialResult, 0, len(parts))
	covered := make(map[string][]string)
	for _, p := range parts {
		if p == nil {
			return nil, false, fmt.Errorf("ktg: merge got a nil partial result")
		}
		cp := &core.PartialResult{
			Slice:        p.Slice,
			FrontierSize: p.FrontierSize,
			QueryWidth:   p.QueryWidth,
			Truncated:    p.Truncated,
			Stats:        p.Stats,
		}
		for _, o := range p.Offers {
			cp.Offers = append(cp.Offers, core.PartialOffer{
				Group:   core.Group{Members: o.Members, Coverage: o.Coverage},
				RootPos: o.RootPos,
				Seq:     o.Seq,
			})
			covered[memberKey(o.Members)] = o.Covered
		}
		cparts = append(cparts, cp)
	}
	cres, exact, err := core.MergePartials(topN, cparts)
	if err != nil {
		return nil, false, err
	}
	out := &Result{Stats: cres.Stats}
	for _, g := range cres.Groups {
		out.Groups = append(out.Groups, Group{
			Members: append([]Vertex(nil), g.Members...),
			Covered: covered[memberKey(g.Members)],
			QKC:     g.QKC(cres.QueryWidth),
		})
	}
	return out, exact, nil
}

// memberKey canonicalizes a member list (already sorted ascending) into
// a map key for re-attaching covered-keyword names after the merge.
func memberKey(members []Vertex) string {
	var b strings.Builder
	for i, v := range members {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatUint(uint64(v), 10))
	}
	return b.String()
}
