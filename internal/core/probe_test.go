package core

import (
	"strings"
	"testing"
)

// TestProbeExplainMatchesStats runs the fixture search with a probe and
// checks the explain plan agrees with the returned stats, row by row.
func TestProbeExplainMatchesStats(t *testing.T) {
	g := fixtureGraph()
	attrs := fixtureAttrs()
	q := Query{Keywords: fixtureQuery(t, attrs), P: 3, K: 1, N: 2}

	probe := &Probe{}
	res, err := Search(g, attrs, q, Options{Probe: probe})
	if err != nil {
		t.Fatal(err)
	}
	e := probe.Explain()
	if e == nil {
		t.Fatal("probe returned nil explain")
	}
	if e.Nodes != res.Stats.Nodes || e.Pruned != res.Stats.Pruned ||
		e.Filtered != res.Stats.Filtered || e.OracleCalls != res.Stats.DistanceChecks ||
		e.Feasible != res.Stats.Feasible {
		t.Fatalf("explain totals %+v disagree with stats %+v", e, res.Stats)
	}
	if e.QueryWidth != res.QueryWidth {
		t.Fatalf("explain width %d, want %d", e.QueryWidth, res.QueryWidth)
	}
	if len(e.Depths) != q.P {
		t.Fatalf("explain has %d depth rows, want %d", len(e.Depths), q.P)
	}
	for d, row := range e.Depths {
		if row.Depth != d {
			t.Fatalf("row %d labeled depth %d", d, row.Depth)
		}
		if row.Expanded != res.Stats.DepthNodes[d+1] {
			t.Fatalf("depth %d expanded %d, want DepthNodes[%d]=%d",
				d, row.Expanded, d+1, res.Stats.DepthNodes[d+1])
		}
		if row.PrunedBound != res.Stats.DepthPruned[d] {
			t.Fatalf("depth %d pruned %d, want %d", d, row.PrunedBound, res.Stats.DepthPruned[d])
		}
		if row.FilteredKLine != res.Stats.DepthFiltered[d] {
			t.Fatalf("depth %d filtered %d, want %d", d, row.FilteredKLine, res.Stats.DepthFiltered[d])
		}
	}
	if len(res.Groups) > 0 {
		if len(e.Bounds) == 0 {
			t.Fatal("groups found but bound trajectory empty")
		}
		if e.FinalBest != res.Groups[0].Coverage {
			t.Fatalf("final best %d, want %d", e.FinalBest, res.Groups[0].Coverage)
		}
		if e.TimeToFirstNS <= 0 || e.TimeToFinalNS < e.TimeToFirstNS {
			t.Fatalf("improvement timestamps out of order: first=%d final=%d",
				e.TimeToFirstNS, e.TimeToFinalNS)
		}
	}
	var prevNodes int64 = -1
	for _, step := range e.Bounds {
		if step.Nodes < prevNodes {
			t.Fatalf("bound trajectory nodes not monotone: %v", e.Bounds)
		}
		prevNodes = step.Nodes
	}
	if e.Aborted != "" {
		t.Fatalf("unexpected abort %q", e.Aborted)
	}

	snap := probe.Snapshot()
	if snap == nil || !snap.Done {
		t.Fatalf("final snapshot missing or not done: %+v", snap)
	}
	if snap.Nodes != res.Stats.Nodes {
		t.Fatalf("snapshot nodes %d, want %d", snap.Nodes, res.Stats.Nodes)
	}
	if snap.RootsTotal <= 0 || snap.RootsExplored > snap.RootsTotal {
		t.Fatalf("roots accounting broken: %+v", snap)
	}

	if out := e.Render(); !strings.Contains(out, "bound trajectory") ||
		!strings.Contains(out, "pruned(T2)") {
		t.Fatalf("render missing sections:\n%s", out)
	}
}

// TestProbeNodeBudgetAbort checks abort attribution when MaxNodes trips.
func TestProbeNodeBudgetAbort(t *testing.T) {
	g := fixtureGraph()
	attrs := fixtureAttrs()
	q := Query{Keywords: fixtureQuery(t, attrs), P: 3, K: 1, N: 2}

	probe := &Probe{}
	_, err := Search(g, attrs, q, Options{Probe: probe, MaxNodes: 2})
	if err == nil {
		t.Fatal("expected budget error")
	}
	e := probe.Explain()
	if e.Aborted != "node_budget" {
		t.Fatalf("abort reason %q, want node_budget", e.Aborted)
	}
}

// TestMergeExplainsPartitionsDepthRows runs the fixture query with a
// top-N too large for the heap to ever fill (so Theorem 2 never fires
// and every shard explores its full subtree slice), then checks the
// merged per-depth expand/prune/filter rows equal single-node exactly —
// the acceptance property the coordinator path relies on.
func TestMergeExplainsPartitionsDepthRows(t *testing.T) {
	g := fixtureGraph()
	attrs := fixtureAttrs()
	q := Query{Keywords: fixtureQuery(t, attrs), P: 3, K: 1, N: 50}

	single := &Probe{}
	if _, err := Search(g, attrs, q, Options{Probe: single}); err != nil {
		t.Fatal(err)
	}
	want := single.Explain()
	if want.Pruned != 0 {
		t.Fatalf("fixture query pruned %d subtrees; pick N large enough that it never prunes", want.Pruned)
	}

	for _, count := range []int{2, 3} {
		parts := make([]*Explain, count)
		for i := 0; i < count; i++ {
			p := &Probe{}
			if _, err := SearchPartial(g, attrs, q, Options{Probe: p},
				CandidateSlice{Index: i, Count: count}); err != nil {
				t.Fatal(err)
			}
			parts[i] = p.Explain()
		}
		merged := MergeExplains(parts, nil)
		if merged == nil {
			t.Fatal("nil merged explain")
		}
		if len(merged.Depths) != len(want.Depths) {
			t.Fatalf("count=%d: %d merged depth rows, want %d", count, len(merged.Depths), len(want.Depths))
		}
		for d := range want.Depths {
			if merged.Depths[d] != want.Depths[d] {
				t.Fatalf("count=%d depth %d: merged %+v, single-node %+v",
					count, d, merged.Depths[d], want.Depths[d])
			}
		}
		if merged.RootsTotal != want.RootsTotal {
			t.Fatalf("count=%d: merged roots %d, want %d", count, merged.RootsTotal, want.RootsTotal)
		}
		if merged.Filtered != want.Filtered || merged.Feasible != want.Feasible {
			t.Fatalf("count=%d: merged totals diverge: %+v vs %+v", count, merged, want)
		}
		if len(merged.Shards) != count {
			t.Fatalf("count=%d: %d shard rows", count, len(merged.Shards))
		}
		for i, s := range merged.Shards {
			if s.Shard != i+1 {
				t.Fatalf("shard row %d has ordinal %d", i, s.Shard)
			}
		}
	}
}

// TestProbeAccumulatesAcrossDiverse checks one probe observing the
// sequential sub-searches of SearchDiverse keeps monotone totals.
func TestProbeAccumulatesAcrossDiverse(t *testing.T) {
	g := fixtureGraph()
	attrs := fixtureAttrs()
	q := Query{Keywords: fixtureQuery(t, attrs), P: 3, K: 1, N: 2}

	probe := &Probe{}
	dr, err := SearchDiverse(g, attrs, q, DiverseOptions{Options: Options{Probe: probe}})
	if err != nil {
		t.Fatal(err)
	}
	e := probe.Explain()
	if e.Nodes != dr.Stats.Nodes {
		t.Fatalf("explain nodes %d, want aggregated %d", e.Nodes, dr.Stats.Nodes)
	}
	if snap := probe.Snapshot(); snap == nil || !snap.Done || snap.Nodes != dr.Stats.Nodes {
		t.Fatalf("final diverse snapshot wrong: %+v", probe.Snapshot())
	}
}
