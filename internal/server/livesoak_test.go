package server_test

// The live-mutation soak: the acceptance test for epoch-swapped serving
// under fire. One mutable server is wrapped in chaos middleware
// injecting a combined fault rate of ≈40% (latency, 429s, 500s, 503s,
// connection resets, truncated bodies) while concurrent query workers
// and a serial mutation stream hammer it through the resilient client.
// A mirror LiveNetwork applies the same accepted batches, retaining
// every published epoch's immutable view. At the end, every answer the
// server gave is replayed offline against the exact view of the epoch
// the answer reports — the answers must be byte-identical. Run under
// -race this also proves the reader/writer paths share no unsynchronized
// state.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ktg"
	"ktg/internal/chaos"
	"ktg/internal/client"
	"ktg/internal/gen"
	"ktg/internal/server"
	"ktg/internal/workload"
)

// Independent per-fault draws combine to ≈40% of requests seeing at
// least one injected fault (1 − 0.90·0.88·0.90·0.94·0.95·0.95 ≈ 0.40).
const liveChaosSpec = "seed=23,latency=0.10:1ms-10ms,e429=0.12:0,e500=0.10,e503=0.06,reset=0.05,truncate=0.05"

const (
	livePreset  = "brightkite"
	liveScale   = 0.01
	liveQueries = 48
	liveWorkers = 4
	liveBatches = 12
	liveOps     = 4
)

func buildLive(t *testing.T) (*ktg.Network, *ktg.LiveNetwork) {
	t.Helper()
	net, err := ktg.GeneratePreset(livePreset, liveScale)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := net.BuildNLRNL()
	if err != nil {
		t.Fatal(err)
	}
	live, err := ktg.NewLiveNetwork(net, idx)
	if err != nil {
		t.Fatal(err)
	}
	return net, live
}

func TestSoakLiveMutationUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("live-mutation chaos soak skipped in -short mode")
	}

	// Server side: a mutable dataset behind chaos middleware.
	// Degradation stays off — a degraded (greedy) answer would
	// legitimately differ from the offline exact replay.
	net, live := buildLive(t)
	srv, err := server.New(server.Config{
		Workers:          liveWorkers,
		QueueDepth:       64,
		DegradeQueueWait: -1,
	}, &server.Dataset{Name: livePreset, Network: net, Live: live})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := chaos.ParseSpec(liveChaosSpec)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(chaos.New(spec).Wrap(srv.Handler()))
	defer ts.Close()

	// Mirror side: an identical LiveNetwork (GeneratePreset is pure)
	// that applies exactly the batches the server accepted, retaining
	// each epoch's immutable view as the ground truth for that epoch.
	_, mirror := buildLive(t)
	views := map[uint64]*ktg.LiveView{1: mirror.View()}

	// The query workload, sampled like the resilience soak's.
	ds, err := gen.GeneratePreset(livePreset, liveScale)
	if err != nil {
		t.Fatal(err)
	}
	g := workload.NewGenerator(ds, 42)
	requests := make([]*client.Request, liveQueries)
	for i := range requests {
		req := &client.Request{
			Dataset:   livePreset,
			Keywords:  g.KeywordNames(g.QueryKeywords(4)),
			GroupSize: 4,
			Tenuity:   2,
		}
		if i%3 == 2 { // every third query exercises /v1/diverse
			req.TopN = 2
		}
		requests[i] = req
	}

	newCl := func(seed int64) *client.Client {
		cl, err := client.New(client.Config{
			BaseURL:        ts.URL,
			MaxAttempts:    8,
			AttemptTimeout: 10 * time.Second,
			BackoffBase:    5 * time.Millisecond,
			BackoffCap:     100 * time.Millisecond,
			RetryBudget:    -1, // the soak hammers on purpose
			HedgeDelay:     25 * time.Millisecond,
			Breaker:        client.BreakerConfig{Threshold: 5, Cooldown: 100 * time.Millisecond},
			Seed:           seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	queryCl, mutCl := newCl(2), newCl(3)

	// Mutation stream: serial batches of effective ops from a Mutator
	// mirroring the dataset's graph. Pairs are deduplicated within a
	// batch so a chaos-forced resend is exactly idempotent: every op
	// re-applies as ignored and no second epoch is minted, which is what
	// keeps the server's epoch sequence aligned with the mirror's.
	var mwg sync.WaitGroup
	mwg.Add(1)
	mutErr := make(chan error, 1)
	go func() {
		defer mwg.Done()
		mut := workload.NewMutator(ds.Graph, 99)
		for b := 0; b < liveBatches; b++ {
			raw := mut.Batch(liveOps, 0.5)
			seen := make(map[[2]int64]bool)
			wire := make([]client.EdgeOp, 0, len(raw))
			ops := make([]ktg.EdgeOp, 0, len(raw))
			for _, op := range raw {
				u, v := int64(op.U), int64(op.V)
				if u > v {
					u, v = v, u
				}
				if seen[[2]int64{u, v}] {
					continue
				}
				seen[[2]int64{u, v}] = true
				name := "delete"
				if op.Insert {
					name = "insert"
				}
				wire = append(wire, client.EdgeOp{Op: name, U: int64(op.U), V: int64(op.V)})
				ops = append(ops, ktg.EdgeOp{Insert: op.Insert, U: op.U, V: op.V})
			}
			resp, err := mutateThroughChaos(mutCl, &client.MutationRequest{Dataset: livePreset, Edges: wire})
			if err != nil {
				mutErr <- fmt.Errorf("batch %d lost: %w", b, err)
				return
			}
			mres, err := mirror.ApplyEdges(ops)
			if err != nil {
				mutErr <- fmt.Errorf("batch %d mirror apply: %w", b, err)
				return
			}
			if resp.Epoch != mres.Epoch {
				mutErr <- fmt.Errorf("batch %d: server epoch %d diverged from mirror epoch %d", b, resp.Epoch, mres.Epoch)
				return
			}
			if mres.Swapped {
				views[mres.Epoch] = mirror.View()
			}
			// Let queries interleave between epochs instead of burning
			// through all batches before the first answer lands.
			time.Sleep(15 * time.Millisecond)
		}
	}()

	type answer struct {
		req   *client.Request
		epoch uint64
		body  string
		err   error
	}
	semantic := func(r *client.Response) string {
		raw, _ := json.Marshal(struct {
			Groups    []client.Group `json:"groups"`
			Diversity *float64       `json:"diversity"`
			MinQKC    *float64       `json:"min_qkc"`
			Score     *float64       `json:"score"`
		}{r.Groups, r.Diversity, r.MinQKC, r.Score})
		return string(raw)
	}

	var (
		wg      sync.WaitGroup
		answers = make([]answer, len(requests))
		next    = make(chan int)
	)
	for w := 0; w < liveWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				resp, err := queryThroughChaos(queryCl, requests[i])
				if err != nil {
					answers[i] = answer{err: err}
					continue
				}
				if resp.Degraded || resp.Partial {
					answers[i] = answer{err: fmt.Errorf("degraded=%v partial=%v; soak config should prevent both", resp.Degraded, resp.Partial)}
					continue
				}
				answers[i] = answer{req: requests[i], epoch: resp.Epoch, body: semantic(resp)}
			}
		}()
	}
	for i := range requests {
		next <- i
	}
	close(next)
	wg.Wait()
	mwg.Wait()
	select {
	case err := <-mutErr:
		t.Fatal(err)
	default:
	}

	// Offline replay: every answer must be exactly the result of running
	// the same search on the immutable view of the epoch it reports.
	lost, wrong := 0, 0
	for i, a := range answers {
		if a.err != nil {
			lost++
			t.Errorf("query %d lost under chaos: %v", i, a.err)
			continue
		}
		view := views[a.epoch]
		if view == nil {
			wrong++
			t.Errorf("query %d reports epoch %d, which was never published", i, a.epoch)
			continue
		}
		if got := replay(t, view, a.req); got != a.body {
			wrong++
			t.Errorf("query %d diverged from its epoch-%d ground truth:\n  server: %s\n  replay: %s", i, a.epoch, a.body, got)
		}
	}
	st := queryCl.Stats()
	mst := mutCl.Stats()
	t.Logf("live soak: %d queries (%d lost, %d wrong), %d batches to epoch %d; query retries=%d hedges=%d; mutation attempts=%d retries=%d hedges=%d",
		liveQueries, lost, wrong, liveBatches, mirror.Epoch(), st.Retries, st.Hedges, mst.Attempts, mst.Retries, mst.Hedges)
	if mst.Hedges != 0 {
		t.Errorf("mutation calls hedged %d times; mutations must never hedge", mst.Hedges)
	}
	if st.Retries == 0 && mst.Retries == 0 {
		t.Error("soak needed zero retries — the fault injection is not biting, the soak proves nothing")
	}
}

// replay runs a request's search offline on one epoch view, reduced to
// the same semantic JSON the client answers are reduced to.
func replay(t *testing.T, view *ktg.LiveView, req *client.Request) string {
	t.Helper()
	q := ktg.Query{
		Keywords:  req.Keywords,
		GroupSize: req.GroupSize,
		Tenuity:   req.Tenuity,
		TopN:      req.TopN,
	}
	if q.TopN == 0 {
		q.TopN = 1 // server-side validation applies the same default
	}
	opts := ktg.SearchOptions{Index: view.Index}
	out := struct {
		Groups    []client.Group `json:"groups"`
		Diversity *float64       `json:"diversity"`
		MinQKC    *float64       `json:"min_qkc"`
		Score     *float64       `json:"score"`
	}{}
	toGroups := func(gs []ktg.Group) []client.Group {
		res := make([]client.Group, 0, len(gs))
		for _, g := range gs {
			members := make([]ktg.Vertex, len(g.Members))
			for i, m := range g.Members {
				members[i] = m
			}
			res = append(res, client.Group{Members: members, Covered: g.Covered, QKC: g.QKC})
		}
		return res
	}
	if req.TopN > 0 {
		dr, err := view.Network.SearchDiverse(q, ktg.DiverseOptions{SearchOptions: opts, Gamma: 0.5})
		if err != nil {
			t.Fatalf("offline diverse replay: %v", err)
		}
		out.Groups = toGroups(dr.Groups)
		out.Diversity, out.MinQKC, out.Score = &dr.Diversity, &dr.MinQKC, &dr.Score
	} else {
		res, err := view.Network.Search(q, opts)
		if err != nil {
			t.Fatalf("offline replay: %v", err)
		}
		out.Groups = toGroups(res.Groups)
	}
	raw, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// queryThroughChaos re-issues one logical query until it succeeds or
// 60s elapse, riding out breaker-open cooldowns.
func queryThroughChaos(c *client.Client, req *client.Request) (*client.Response, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var lastErr error
	for {
		var (
			resp *client.Response
			err  error
		)
		if req.TopN > 0 {
			resp, err = c.Diverse(ctx, req)
		} else {
			resp, err = c.Query(ctx, req)
		}
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, fmt.Errorf("patience exhausted: %w", lastErr)
		}
		if errors.Is(err, client.ErrCircuitOpen) {
			select {
			case <-time.After(50 * time.Millisecond):
			case <-ctx.Done():
				return nil, fmt.Errorf("patience exhausted: %w", lastErr)
			}
		}
	}
}

// mutateThroughChaos does the same for one edge batch. Blind resends
// are safe by construction: the soak's batches are pair-deduplicated,
// so a batch that already landed re-applies as all-ignored.
func mutateThroughChaos(c *client.Client, req *client.MutationRequest) (*client.MutationResponse, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var lastErr error
	for {
		resp, err := c.MutateEdges(ctx, req)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, fmt.Errorf("patience exhausted: %w", lastErr)
		}
		if errors.Is(err, client.ErrCircuitOpen) {
			select {
			case <-time.After(50 * time.Millisecond):
			case <-ctx.Done():
				return nil, fmt.Errorf("patience exhausted: %w", lastErr)
			}
		}
	}
}
