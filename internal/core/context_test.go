package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"ktg/internal/graph"
	"ktg/internal/index"
)

// cancelAfterOracle cancels a context after a fixed number of distance
// checks, then keeps answering through the wrapped oracle — a
// deterministic way to cancel a search mid-flight.
type cancelAfterOracle struct {
	inner  index.Oracle
	cancel context.CancelFunc
	after  int64
	calls  int64
}

func (o *cancelAfterOracle) Within(u, v graph.Vertex, k int) bool {
	o.calls++
	if o.calls == o.after {
		o.cancel()
	}
	return o.inner.Within(u, v, k)
}

func (o *cancelAfterOracle) Name() string { return "cancel-after" }

// wideQuery builds a query with enough branch-and-bound nodes (pruning
// off, k = 0 so nothing filters) that the throttled context checks are
// guaranteed to fire.
func wideQuery(t *testing.T) (Query, Options) {
	t.Helper()
	q := Query{Keywords: fixtureQuery(t, fixtureAttrs()), P: 4, K: 0, N: 3}
	return q, Options{DisableKeywordPruning: true}
}

func TestSearchContextPreCancelled(t *testing.T) {
	g, a := fixtureGraph(), fixtureAttrs()
	q, opts := wideQuery(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts.Context = ctx

	res, err := Search(g, a, q, opts)
	if res == nil {
		t.Fatal("cancelled search returned nil result")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if res.Stats.Nodes != 0 {
		t.Fatalf("pre-cancelled search explored %d nodes, want 0", res.Stats.Nodes)
	}
}

func TestSearchContextCancelMidSearch(t *testing.T) {
	g, a := fixtureGraph(), fixtureAttrs()
	q, opts := wideQuery(t)

	full, err := Search(g, a, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if full.Stats.Nodes <= deadlineNodeMask {
		t.Fatalf("fixture too small to exercise the throttled check: %d nodes", full.Stats.Nodes)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts.Context = ctx
	opts.Oracle = &cancelAfterOracle{inner: index.NewBFSOracle(g), cancel: cancel, after: 1}

	res, err := Search(g, a, q, opts)
	if res == nil {
		t.Fatal("cancelled search returned nil result")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("cancellation reported as budget exhaustion: %v", err)
	}
	if res.Stats.Nodes >= full.Stats.Nodes {
		t.Fatalf("cancelled search explored %d nodes, full search %d — no early exit",
			res.Stats.Nodes, full.Stats.Nodes)
	}
}

func TestGreedyContextPreCancelled(t *testing.T) {
	g, a := fixtureGraph(), fixtureAttrs()
	q := Query{Keywords: fixtureQuery(t, a), P: 3, K: 1, N: 2}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	res, err := Greedy(g, a, q, GreedyOptions{Context: ctx})
	if res == nil {
		t.Fatal("cancelled greedy returned nil result")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if len(res.Groups) != 0 {
		t.Fatalf("pre-cancelled greedy returned %d groups, want 0", len(res.Groups))
	}
}

func TestDiverseContextPreCancelled(t *testing.T) {
	g, a := fixtureGraph(), fixtureAttrs()
	q, opts := wideQuery(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts.Context = ctx

	res, err := SearchDiverse(g, a, q, DiverseOptions{Options: opts, Gamma: 0.5})
	if res == nil {
		t.Fatal("cancelled diverse search returned nil result")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
}

func TestBruteForceContextCancelled(t *testing.T) {
	g, a := fixtureGraph(), fixtureAttrs()
	q, opts := wideQuery(t)

	full, err := BruteForce(g, a, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if full.Stats.Nodes <= deadlineNodeMask {
		t.Fatalf("fixture too small: %d nodes", full.Stats.Nodes)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts.Context = ctx
	res, err := BruteForce(g, a, q, opts)
	if res == nil {
		t.Fatal("cancelled brute force returned nil result")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if res.Stats.Nodes >= full.Stats.Nodes {
		t.Fatalf("cancelled brute force explored %d nodes, full run %d — no early exit",
			res.Stats.Nodes, full.Stats.Nodes)
	}
}

// TestBruteForceMaxDuration: brute force honours MaxDuration like the
// branch-and-bound does, stopping at the first throttled check with the
// best groups so far and ErrBudgetExhausted.
func TestBruteForceMaxDuration(t *testing.T) {
	g, a := fixtureGraph(), fixtureAttrs()
	q, opts := wideQuery(t)
	full, err := BruteForce(g, a, q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if full.Stats.Nodes <= deadlineNodeMask {
		t.Fatalf("fixture too small: %d nodes", full.Stats.Nodes)
	}

	opts.MaxDuration = time.Nanosecond
	res, err := BruteForce(g, a, q, opts)
	if res == nil {
		t.Fatal("timed-out brute force returned nil result")
	}
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want wrapped ErrBudgetExhausted", err)
	}
	if res.Stats.Nodes != deadlineNodeMask+1 {
		t.Fatalf("timed-out brute force explored %d nodes, want %d (the first check)",
			res.Stats.Nodes, deadlineNodeMask+1)
	}
}
