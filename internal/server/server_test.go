package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ktg"
)

// reviewerNetwork rebuilds the paper's Figure 1 reviewer-selection
// network (the same fixture the root package tests use).
func reviewerNetwork(t *testing.T) *ktg.Network {
	t.Helper()
	b := ktg.NewBuilder(12)
	edges := [][2]ktg.Vertex{
		{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 9}, {0, 11},
		{2, 3}, {3, 4}, {3, 9},
		{4, 6}, {4, 8}, {5, 6}, {6, 7}, {6, 9}, {7, 8},
		{9, 10}, {10, 11},
	}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	b.SetKeywords(0, "SN", "GD", "DQ")
	b.SetKeywords(1, "SN", "DQ")
	b.SetKeywords(2, "GD")
	b.SetKeywords(3, "SN")
	b.SetKeywords(4, "GQ")
	b.SetKeywords(5, "GD")
	b.SetKeywords(6, "SN", "GQ")
	b.SetKeywords(7, "DQ")
	b.SetKeywords(8, "XX")
	b.SetKeywords(10, "QP", "SN")
	b.SetKeywords(11, "DQ", "GD")
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func newTestServer(t *testing.T, cfg Config, datasets ...*Dataset) *Server {
	t.Helper()
	if len(datasets) == 0 {
		net := reviewerNetwork(t)
		idx, err := net.BuildNLRNL()
		if err != nil {
			t.Fatal(err)
		}
		datasets = []*Dataset{{Name: "reviewers", Network: net, Index: idx}}
	}
	s, err := New(cfg, datasets...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func postJSON(t *testing.T, h http.Handler, path, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var out map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("%s: response is not JSON: %v\n%s", path, err, rec.Body.String())
	}
	return rec, out
}

const goodBody = `{"dataset":"reviewers","keywords":["SN","QP","DQ","GQ","GD"],"group_size":3,"tenuity":1,"top_n":2}`

func TestValidationErrors(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	cases := []struct {
		name   string
		path   string
		body   string
		status int
		code   string
	}{
		{"malformed JSON", "/v1/query", `{"dataset":`, 400, "malformed_body"},
		{"unknown field", "/v1/query", `{"dataset":"reviewers","keywords":["SN"],"groupsize":3}`, 400, "malformed_body"},
		{"missing dataset", "/v1/query", `{"keywords":["SN"],"group_size":3}`, 400, "missing_dataset"},
		{"unknown dataset", "/v1/query", `{"dataset":"nope","keywords":["SN"],"group_size":3,"tenuity":1}`, 404, "unknown_dataset"},
		{"no keywords", "/v1/query", `{"dataset":"reviewers","keywords":[],"group_size":3}`, 400, "missing_keywords"},
		{"blank keyword", "/v1/query", `{"dataset":"reviewers","keywords":["SN",""],"group_size":3}`, 400, "empty_keyword"},
		{"zero group size", "/v1/query", `{"dataset":"reviewers","keywords":["SN"],"group_size":0}`, 400, "invalid_group_size"},
		{"huge group size", "/v1/query", `{"dataset":"reviewers","keywords":["SN"],"group_size":99}`, 400, "invalid_group_size"},
		{"negative tenuity", "/v1/query", `{"dataset":"reviewers","keywords":["SN"],"group_size":3,"tenuity":-1}`, 400, "invalid_tenuity"},
		{"negative top_n", "/v1/query", `{"dataset":"reviewers","keywords":["SN"],"group_size":3,"top_n":-2}`, 400, "invalid_top_n"},
		{"bad algorithm", "/v1/query", `{"dataset":"reviewers","keywords":["SN"],"group_size":3,"algorithm":"dijkstra"}`, 400, "unknown_algorithm"},
		{"seeds without greedy", "/v1/query", `{"dataset":"reviewers","keywords":["SN"],"group_size":3,"seeds":5}`, 400, "invalid_seeds"},
		{"negative timeout", "/v1/query", `{"dataset":"reviewers","keywords":["SN"],"group_size":3,"timeout_ms":-1}`, 400, "invalid_timeout"},
		{"gamma on query", "/v1/query", `{"dataset":"reviewers","keywords":["SN"],"group_size":3,"gamma":0.5}`, 400, "invalid_gamma"},
		{"gamma out of range", "/v1/diverse", `{"dataset":"reviewers","keywords":["SN"],"group_size":3,"gamma":1.5}`, 400, "invalid_gamma"},
		{"greedy on diverse", "/v1/diverse", `{"dataset":"reviewers","keywords":["SN"],"group_size":3,"algorithm":"greedy"}`, 400, "unknown_algorithm"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := mRejectInvalid.Value()
			rec, out := postJSON(t, h, tc.path, tc.body)
			if rec.Code != tc.status {
				t.Fatalf("status = %d, want %d; body %s", rec.Code, tc.status, rec.Body.String())
			}
			errObj, _ := out["error"].(map[string]any)
			if errObj == nil {
				t.Fatalf("no error object in %s", rec.Body.String())
			}
			if errObj["code"] != tc.code {
				t.Fatalf("error code = %v, want %q", errObj["code"], tc.code)
			}
			if got := mRejectInvalid.Value(); got != before+1 {
				t.Fatalf("rejected_invalid_total moved %d, want 1", got-before)
			}
		})
	}
}

func TestQueryAlgorithmsAndEndpoints(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()

	for _, algo := range []string{"", "vkc", "qkc", "brute", "greedy"} {
		body := fmt.Sprintf(`{"dataset":"reviewers","keywords":["SN","QP","DQ","GQ","GD"],"group_size":3,"tenuity":1,"top_n":2,"algorithm":%q}`, algo)
		rec, out := postJSON(t, h, "/v1/query", body)
		if rec.Code != 200 {
			t.Fatalf("algorithm %q: status %d: %s", algo, rec.Code, rec.Body.String())
		}
		groups, _ := out["groups"].([]any)
		if len(groups) == 0 {
			t.Fatalf("algorithm %q returned no groups", algo)
		}
		if out["partial"] == true {
			t.Fatalf("algorithm %q unexpectedly partial", algo)
		}
	}

	rec, out := postJSON(t, h, "/v1/diverse", `{"dataset":"reviewers","keywords":["SN","QP","DQ","GQ","GD"],"group_size":3,"tenuity":1,"top_n":2,"gamma":0.5}`)
	if rec.Code != 200 {
		t.Fatalf("/v1/diverse: status %d: %s", rec.Code, rec.Body.String())
	}
	if _, ok := out["diversity"]; !ok {
		t.Fatalf("/v1/diverse response lacks diversity: %s", rec.Body.String())
	}

	req := httptest.NewRequest(http.MethodGet, "/v1/datasets", nil)
	drec := httptest.NewRecorder()
	h.ServeHTTP(drec, req)
	if drec.Code != 200 || !strings.Contains(drec.Body.String(), `"reviewers"`) {
		t.Fatalf("/v1/datasets: %d %s", drec.Code, drec.Body.String())
	}
	for _, path := range []string{"/healthz", "/readyz", "/metrics"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != 200 {
			t.Fatalf("%s: status %d", path, rec.Code)
		}
	}
}

func TestCacheHitMissAndCanonicalization(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()

	hits, misses := mCacheHits.Value(), mCacheMisses.Value()
	rec, out := postJSON(t, h, "/v1/query", goodBody)
	if rec.Code != 200 || out["cache"] != "miss" {
		t.Fatalf("first query: status %d cache %v", rec.Code, out["cache"])
	}
	if rec.Header().Get("X-KTG-Cache") != "miss" {
		t.Fatalf("X-KTG-Cache = %q, want miss", rec.Header().Get("X-KTG-Cache"))
	}

	rec, out = postJSON(t, h, "/v1/query", goodBody)
	if rec.Code != 200 || out["cache"] != "hit" {
		t.Fatalf("repeat query: status %d cache %v", rec.Code, out["cache"])
	}

	// Same query with reordered and duplicated keywords must hit the
	// same cache slot: the key canonicalizes keywords into a sorted set.
	reordered := `{"dataset":"reviewers","keywords":["GD","GQ","DQ","QP","SN","SN"],"group_size":3,"tenuity":1,"top_n":2}`
	rec, out = postJSON(t, h, "/v1/query", reordered)
	if rec.Code != 200 || out["cache"] != "hit" {
		t.Fatalf("reordered query: status %d cache %v (want hit)", rec.Code, out["cache"])
	}
	if got := mCacheHits.Value() - hits; got != 2 {
		t.Fatalf("cache_hits_total moved %d, want 2", got)
	}
	if got := mCacheMisses.Value() - misses; got != 1 {
		t.Fatalf("cache_misses_total moved %d, want 1", got)
	}

	// A different query (different tenuity) must not share the slot.
	other := `{"dataset":"reviewers","keywords":["SN","QP","DQ","GQ","GD"],"group_size":3,"tenuity":0,"top_n":2}`
	if _, out = postJSON(t, h, "/v1/query", other); out["cache"] != "miss" {
		t.Fatalf("different query served cache %v, want miss", out["cache"])
	}

	// Explicit invalidation empties the cache.
	rec, out = postJSON(t, h, "/v1/cache/invalidate", "")
	if rec.Code != 200 || out["invalidated"].(float64) < 2 {
		t.Fatalf("invalidate: %d %s", rec.Code, rec.Body.String())
	}
	if s.cache.size() != 0 {
		t.Fatalf("cache size after invalidate = %d", s.cache.size())
	}
	if _, out = postJSON(t, h, "/v1/query", goodBody); out["cache"] != "miss" {
		t.Fatalf("post-invalidate query served cache %v, want miss", out["cache"])
	}
}

// gateIndex blocks every Within call until the gate closes, and closes
// `entered` on the first call — letting tests hold a search mid-flight
// at a deterministic point.
type gateIndex struct {
	inner   ktg.DistanceIndex
	entered chan struct{}
	gate    chan struct{}
	once    sync.Once
}

func newGateIndex(inner ktg.DistanceIndex) *gateIndex {
	return &gateIndex{inner: inner, entered: make(chan struct{}), gate: make(chan struct{})}
}

func (g *gateIndex) Within(u, v ktg.Vertex, k int) bool {
	g.once.Do(func() { close(g.entered) })
	<-g.gate
	return g.inner.Within(u, v, k)
}

func (g *gateIndex) Name() string { return "gate" }

// sleepIndex delays every distance check, making search duration
// controllable without touching the search code.
type sleepIndex struct {
	inner ktg.DistanceIndex
	d     time.Duration
}

func (s *sleepIndex) Within(u, v ktg.Vertex, k int) bool {
	time.Sleep(s.d)
	return s.inner.Within(u, v, k)
}

func (s *sleepIndex) Name() string { return "sleep" }

func TestOverloadFast429(t *testing.T) {
	net := reviewerNetwork(t)
	idx, err := net.BuildNLRNL()
	if err != nil {
		t.Fatal(err)
	}
	gate := newGateIndex(idx)
	s := newTestServer(t, Config{Workers: 1, QueueDepth: -1},
		&Dataset{Name: "reviewers", Network: net, Index: gate})
	h := s.Handler()

	done := make(chan int, 1)
	go func() {
		rec, _ := postJSON(t, h, "/v1/query", goodBody)
		done <- rec.Code
	}()
	<-gate.entered // the only worker is now held mid-search

	// A different query (distinct cache key, so it cannot join the
	// in-flight search) must bounce immediately: no workers, no queue.
	rejects := mRejectOverload.Value()
	other := `{"dataset":"reviewers","keywords":["SN","GD"],"group_size":2,"tenuity":1}`
	start := time.Now()
	rec, out := postJSON(t, h, "/v1/query", other)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overloaded status = %d, want 429: %s", rec.Code, rec.Body.String())
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("429 took %v, want fast rejection", d)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 lacks Retry-After")
	}
	if errObj := out["error"].(map[string]any); errObj["code"] != "overloaded" {
		t.Fatalf("error code = %v", errObj["code"])
	}
	if mRejectOverload.Value() != rejects+1 {
		t.Fatal("rejected_overload_total did not move")
	}

	close(gate.gate) // release the held search
	if code := <-done; code != 200 {
		t.Fatalf("admitted request finished %d, want 200", code)
	}
	if got := mInflight.Value(); got != 0 {
		t.Fatalf("inflight gauge = %d after drain, want 0", got)
	}
}

func TestSingleflightSharesIdenticalQueries(t *testing.T) {
	net := reviewerNetwork(t)
	idx, err := net.BuildNLRNL()
	if err != nil {
		t.Fatal(err)
	}
	gate := newGateIndex(idx)
	s := newTestServer(t, Config{Workers: 2},
		&Dataset{Name: "reviewers", Network: net, Index: gate})
	h := s.Handler()

	shared := mCacheShared.Value()
	leader := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec, _ := postJSON(t, h, "/v1/query", goodBody)
		leader <- rec
	}()
	<-gate.entered // leader holds the flight for goodBody's key

	follower := make(chan map[string]any, 1)
	go func() {
		_, out := postJSON(t, h, "/v1/query", goodBody)
		follower <- out
	}()
	// Give the follower a moment to park on the flight, then release.
	time.Sleep(20 * time.Millisecond)
	close(gate.gate)

	if rec := <-leader; rec.Code != 200 {
		t.Fatalf("leader status %d", rec.Code)
	}
	out := <-follower
	if out["cache"] != "shared" {
		t.Fatalf("follower cache = %v, want shared", out["cache"])
	}
	if mCacheShared.Value() != shared+1 {
		t.Fatal("cache_shared_total did not move")
	}
}

func TestDeadlineExceededReturnsPartial(t *testing.T) {
	net, err := ktg.GeneratePreset("brightkite", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := net.BuildNLRNL()
	if err != nil {
		t.Fatal(err)
	}
	// Each distance check costs ~200µs, so the 5ms budget expires long
	// before the search's first thousand checks; the throttled context
	// checks fire and the best-so-far groups come back marked partial.
	slow := &sleepIndex{inner: idx, d: 200 * time.Microsecond}
	s := newTestServer(t, Config{},
		&Dataset{Name: "bk", Network: net, Index: slow})
	h := s.Handler()

	kws, _ := json.Marshal(net.PopularKeywords(6))
	partials := mPartial.Value()
	body := fmt.Sprintf(`{"dataset":"bk","keywords":%s,"group_size":4,"tenuity":2,"top_n":3,"timeout_ms":5}`, kws)
	rec, out := postJSON(t, h, "/v1/query", body)
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if out["partial"] != true || out["partial_reason"] != "deadline" {
		t.Fatalf("partial = %v reason = %v, want deadline partial", out["partial"], out["partial_reason"])
	}
	if mPartial.Value() != partials+1 {
		t.Fatal("partial_total did not move")
	}

	// Partial results must not poison the cache: nothing was stored,
	// and repeating the query runs a fresh search instead of serving
	// the truncated result as a hit.
	if s.cache.size() != 0 {
		t.Fatalf("cache holds %d entries after a partial result, want 0", s.cache.size())
	}
	if _, out = postJSON(t, h, "/v1/query", body); out["cache"] != "miss" {
		t.Fatalf("repeat of partial query served cache %v, want miss", out["cache"])
	}
}

func TestMaxNodesReturnsBudgetPartial(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, body := range []string{
		`{"dataset":"reviewers","keywords":["SN","QP","DQ","GQ","GD"],"group_size":3,"tenuity":1,"top_n":2,"max_nodes":1}`,
		`{"dataset":"reviewers","keywords":["SN","QP","DQ","GQ","GD"],"group_size":3,"tenuity":1,"top_n":2,"algorithm":"brute","max_nodes":3}`,
	} {
		rec, out := postJSON(t, s.Handler(), "/v1/query", body)
		if rec.Code != 200 {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		if out["partial"] != true || out["partial_reason"] != "budget" {
			t.Fatalf("%s: partial = %v reason = %v, want budget partial", body, out["partial"], out["partial_reason"])
		}
	}
}

// TestHugeTimeoutClampsToCeiling: a timeout_ms too large to convert to a
// Duration clamps to the ceiling instead of overflowing into a deadline
// that has already passed.
func TestHugeTimeoutClampsToCeiling(t *testing.T) {
	const def, ceiling = 30 * time.Second, 2 * time.Minute
	for _, tc := range []struct {
		ms   int64
		want time.Duration
	}{
		{0, def},
		{1, time.Millisecond},
		{ceiling.Milliseconds(), ceiling},
		{1e13, ceiling},
		{math.MaxInt64, ceiling},
	} {
		if got := Timeout(tc.ms, def, ceiling); got != tc.want {
			t.Errorf("Timeout(%d ms) = %v, want %v", tc.ms, got, tc.want)
		}
	}

	s := newTestServer(t, Config{})
	body := `{"dataset":"reviewers","keywords":["SN","QP","DQ","GQ","GD"],"group_size":3,"tenuity":1,"top_n":2,"timeout_ms":10000000000000}`
	rec, out := postJSON(t, s.Handler(), "/v1/query", body)
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if out["partial"] == true {
		t.Fatalf("huge timeout answered partial (%v)", out["partial_reason"])
	}
	if groups, _ := out["groups"].([]any); len(groups) == 0 {
		t.Fatalf("no groups for a huge timeout: %s", rec.Body.String())
	}
}

func TestCancelledRequestFreesWorker(t *testing.T) {
	net, err := ktg.GeneratePreset("brightkite", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := net.BuildNLRNL()
	if err != nil {
		t.Fatal(err)
	}
	slow := &sleepIndex{inner: idx, d: 200 * time.Microsecond}
	s := newTestServer(t, Config{Workers: 1, QueueDepth: -1},
		&Dataset{Name: "bk", Network: net, Index: slow})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cancelled := mCancelled.Value()
	kws, _ := json.Marshal(net.PopularKeywords(6))
	body := fmt.Sprintf(`{"dataset":"bk","keywords":%s,"group_size":4,"tenuity":2,"top_n":3}`, kws)
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/query", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errCh <- err
	}()

	// Wait for the search to hold the only worker, then hang up.
	deadline := time.Now().Add(5 * time.Second)
	for mInflight.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("search never started")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errCh; err == nil {
		t.Fatal("cancelled request unexpectedly succeeded")
	}

	// The abandoned search must notice the dead context at its next
	// throttled check and hand its worker back.
	for mInflight.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("worker never freed: inflight = %d", mInflight.Value())
		}
		time.Sleep(time.Millisecond)
	}
	for mCancelled.Value() == cancelled {
		if time.Now().After(deadline) {
			t.Fatal("cancelled_total never moved")
		}
		time.Sleep(time.Millisecond)
	}

	// The freed worker serves the next (fast, distinct) request.
	quick := `{"dataset":"bk","keywords":["kw0"],"group_size":2,"tenuity":1,"max_nodes":100}`
	rec, _ := postJSON(t, s.Handler(), "/v1/query", quick)
	if rec.Code != 200 {
		t.Fatalf("post-cancel request: status %d: %s", rec.Code, rec.Body.String())
	}
}

func TestDrainRejectsNewWork(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()

	// Warm the cache, then drain.
	if rec, _ := postJSON(t, h, "/v1/query", goodBody); rec.Code != 200 {
		t.Fatalf("warmup: %d", rec.Code)
	}
	s.Drain()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining = %d, want 503", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != 200 {
		t.Fatalf("/healthz while draining = %d, want 200", rec.Code)
	}

	drains := mRejectDraining.Value()
	qrec, out := postJSON(t, h, "/v1/query", goodBody)
	if qrec.Code != http.StatusServiceUnavailable {
		t.Fatalf("query while draining = %d, want 503: %s", qrec.Code, qrec.Body.String())
	}
	if qrec.Header().Get("Retry-After") == "" {
		t.Fatal("draining 503 lacks Retry-After")
	}
	if errObj := out["error"].(map[string]any); errObj["code"] != "draining" {
		t.Fatalf("error code = %v, want draining", errObj["code"])
	}
	if mRejectDraining.Value() != drains+1 {
		t.Fatal("rejected_draining_total did not move")
	}
}

func TestAdmitterQueueAccounting(t *testing.T) {
	a := newAdmitter(1, 2)
	if _, err := a.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Two waiters fit the queue; the third bounces.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	results := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := a.acquire(ctx)
			results <- err
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for a.queued.Load() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("queued = %d, want 2", a.queued.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := a.acquire(context.Background()); err != errOverloaded {
		t.Fatalf("third waiter got %v, want errOverloaded", err)
	}

	// Releasing lets one waiter through; cancelling evicts the other.
	a.release()
	if err := <-results; err != nil {
		t.Fatalf("first waiter: %v", err)
	}
	cancel()
	if err := <-results; err != context.Canceled {
		t.Fatalf("cancelled waiter got %v", err)
	}
	for a.queued.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("queued = %d after drain, want 0", a.queued.Load())
		}
		time.Sleep(time.Millisecond)
	}
}
