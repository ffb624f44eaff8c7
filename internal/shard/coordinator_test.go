package shard

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"ktg"
	"ktg/internal/client"
	"ktg/internal/obs"
	"ktg/internal/server"
)

// reviewerNetwork rebuilds the paper's Figure 1 reviewer-selection
// network (the same fixture the server tests use).
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

// startShard runs one shard worker (a full single-node server) over the
// reviewer network and returns its HTTP endpoint.
func startShard(t *testing.T, cfg server.Config) *httptest.Server {
	t.Helper()
	net := reviewerNetwork(t)
	idx, err := net.BuildNLRNL()
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.New(cfg, &server.Dataset{Name: "reviewers", Network: net, Index: idx})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// fastClient keeps retry latency out of tests.
func fastClient() client.Config {
	return client.Config{
		MaxAttempts: 2,
		BackoffBase: time.Millisecond,
		BackoffCap:  2 * time.Millisecond,
		Seed:        7,
	}
}

func newCoordinator(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	if cfg.Client.MaxAttempts == 0 {
		cfg.Client = fastClient()
	}
	co, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return co
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

// TestCoordinatorMatchesSingleNode: scattering across 2 and 3 shards
// must reproduce the single-node answer exactly, for several queries
// and orderings.
func TestCoordinatorMatchesSingleNode(t *testing.T) {
	single := startShard(t, server.Config{})
	shards := []*httptest.Server{
		startShard(t, server.Config{}),
		startShard(t, server.Config{}),
		startShard(t, server.Config{}),
	}
	bodies := []string{
		goodBody,
		`{"dataset":"reviewers","keywords":["SN","DQ"],"group_size":2,"tenuity":1,"top_n":3}`,
		`{"dataset":"reviewers","keywords":["SN","QP","DQ","GQ","GD"],"group_size":3,"tenuity":1,"top_n":4,"algorithm":"vkc"}`,
		`{"dataset":"reviewers","keywords":["GD","GQ"],"group_size":3,"tenuity":2,"top_n":2,"algorithm":"qkc"}`,
	}
	for _, count := range []int{2, 3} {
		urls := make([]string, count)
		for i := 0; i < count; i++ {
			urls[i] = shards[i].URL
		}
		co := newCoordinator(t, Config{Shards: urls})
		h := co.Handler()
		for _, body := range bodies {
			res, err := http.Post(single.URL+"/v1/query", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var want map[string]any
			if err := json.NewDecoder(res.Body).Decode(&want); err != nil {
				t.Fatal(err)
			}
			res.Body.Close()
			if res.StatusCode != http.StatusOK {
				t.Fatalf("single-node query failed: %v", want)
			}

			rec, got := postJSON(t, h, "/v1/query", body)
			if rec.Code != http.StatusOK {
				t.Fatalf("coordinator (%d shards): %d %v", count, rec.Code, got)
			}
			if !reflect.DeepEqual(want["groups"], got["groups"]) {
				t.Fatalf("%d shards, body %s:\nsingle %v\ncoord  %v", count, body, want["groups"], got["groups"])
			}
			if got["partial"] != nil {
				t.Fatalf("healthy fleet produced a partial answer: %v", got)
			}
			if got["shards_total"] != float64(count) || got["shards_failed"] != nil {
				t.Fatalf("fleet accounting wrong: total=%v failed=%v", got["shards_total"], got["shards_failed"])
			}
		}
	}
}

// TestCoordinatorExplainMergeEqualsSingleNode: the headline explain
// acceptance criterion. An exact query with "explain": true through the
// 2-shard coordinator returns a merged plan whose summed per-depth
// expand/prune/filter rows equal a direct single-node explain of the
// same query. Equality (not just comparability) holds because the query
// uses a top_n large enough that no heap ever fills: the top-N
// threshold stays -1 everywhere, so zero Theorem 2 bound prunes fire
// and the disjoint root partitions sum to exactly the single-node
// traversal. Theorem 3 k-line filtering is threshold-independent, so
// those rows match unconditionally.
func TestCoordinatorExplainMergeEqualsSingleNode(t *testing.T) {
	single := startShard(t, server.Config{})
	shards := []*httptest.Server{
		startShard(t, server.Config{}),
		startShard(t, server.Config{}),
	}
	co := newCoordinator(t, Config{Shards: []string{shards[0].URL, shards[1].URL}})

	// top_n=100 exceeds the 51 feasible groups this query has on the
	// 12-vertex network, so the heap can never fill and the per-shard
	// searches do exactly the work the single node does.
	body := `{"dataset":"reviewers","keywords":["SN","QP","DQ","GQ","GD"],"group_size":3,"tenuity":1,"top_n":100,"explain":true}`

	type explained struct {
		Groups  []any        `json:"groups"`
		Explain *ktg.Explain `json:"explain"`
		Cache   string       `json:"cache"`
	}
	res, err := http.Post(single.URL+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var want explained
	if err := json.NewDecoder(res.Body).Decode(&want); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("single-node explain query: %d", res.StatusCode)
	}
	if want.Explain == nil {
		t.Fatal("single-node response lacks explain block")
	}
	if want.Explain.FinalThresh != -1 {
		t.Fatalf("test query filled the heap (threshold %d); pick a larger top_n", want.Explain.FinalThresh)
	}

	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	co.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("coordinator explain query: %d %s", rec.Code, rec.Body.String())
	}
	var got explained
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Explain == nil {
		t.Fatal("coordinator response lacks merged explain block")
	}
	if got.Cache != "bypass" {
		t.Errorf("coordinator explain cache status = %q, want bypass", got.Cache)
	}
	me, se := got.Explain, want.Explain

	if !reflect.DeepEqual(got.Groups, want.Groups) {
		t.Fatalf("scattered groups differ from single node:\nwant %v\ngot  %v", want.Groups, got.Groups)
	}
	if len(me.Shards) != 2 {
		t.Fatalf("merged explain has %d shard entries, want 2: %+v", len(me.Shards), me.Shards)
	}
	for i, s := range me.Shards {
		if s.Shard != i+1 {
			t.Errorf("shard entry %d has ordinal %d", i, s.Shard)
		}
		if s.URL != shards[i].URL {
			t.Errorf("shard entry %d URL = %q, want %q", i, s.URL, shards[i].URL)
		}
	}
	if me.Algorithm == "" {
		t.Error("merged explain lacks algorithm")
	}

	// The summed totals must equal the single-node traversal exactly.
	// Nodes is off by exactly one per extra shard: every search counts
	// one depth-0 entry node (the bookkeeping the depth rows exclude),
	// and two partial searches enter once each where the single node
	// enters once.
	if me.Nodes-int64(len(me.Shards)) != se.Nodes-1 || me.Pruned != se.Pruned || me.Filtered != se.Filtered {
		t.Errorf("merged totals differ: nodes %d/%d pruned %d/%d filtered %d/%d (merged/single)",
			me.Nodes, se.Nodes, me.Pruned, se.Pruned, me.Filtered, se.Filtered)
	}
	if me.RootsTotal != se.RootsTotal || me.RootsExplored != se.RootsExplored {
		t.Errorf("merged roots differ: %d/%d explored, %d/%d total (merged/single)",
			me.RootsExplored, se.RootsExplored, me.RootsTotal, se.RootsTotal)
	}
	// And so must every per-depth expand/prune/filter row.
	if len(me.Depths) != len(se.Depths) {
		t.Fatalf("depth rows differ: merged %d, single %d", len(me.Depths), len(se.Depths))
	}
	for d := range se.Depths {
		if me.Depths[d] != se.Depths[d] {
			t.Errorf("depth %d row differs: merged %+v, single %+v", d, me.Depths[d], se.Depths[d])
		}
	}
	if me.FinalBest != se.FinalBest {
		t.Errorf("final best differs: merged %d, single %d", me.FinalBest, se.FinalBest)
	}
}

// TestCoordinatorShardLossIsExplicitPartial: one dead shard of two
// degrades the answer to an explicitly-partial one — 200, valid merged
// groups, partial:true, shards_failed:1. Never an error, never a
// silently complete-looking answer.
func TestCoordinatorShardLossIsExplicitPartial(t *testing.T) {
	good := startShard(t, server.Config{})
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	t.Cleanup(dead.Close)

	co := newCoordinator(t, Config{Shards: []string{good.URL, dead.URL}})
	rec, got := postJSON(t, co.Handler(), "/v1/query", goodBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("shard loss must not fail the query: %d %v", rec.Code, got)
	}
	if got["partial"] != true || got["partial_reason"] != "shard_failure" {
		t.Fatalf("shard loss not flagged: %v", got)
	}
	if got["shards_failed"] != float64(1) || got["shards_total"] != float64(2) {
		t.Fatalf("shards_failed not surfaced: %v", got)
	}
	if groups, ok := got["groups"].([]any); !ok || len(groups) == 0 {
		t.Fatalf("partial answer carries no groups: %v", got)
	}
}

// TestCoordinatorAllShardsFailed: a fleet-wide outage is an error, not
// an empty answer.
func TestCoordinatorAllShardsFailed(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	t.Cleanup(dead.Close)
	co := newCoordinator(t, Config{Shards: []string{dead.URL}})
	rec, got := postJSON(t, co.Handler(), "/v1/query", goodBody)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (%v)", rec.Code, got)
	}
	errObj, _ := got["error"].(map[string]any)
	if errObj["code"] != "all_shards_failed" {
		t.Fatalf("error code = %v", errObj)
	}
}

// TestCoordinatorValidationParity: the coordinator rejects malformed
// requests itself, with the same codes as a single-node server, without
// touching any shard.
func TestCoordinatorValidationParity(t *testing.T) {
	unreachable := httptest.NewServer(http.HandlerFunc(func(_ http.ResponseWriter, _ *http.Request) {
		t.Error("validation failure must not reach a shard")
	}))
	t.Cleanup(unreachable.Close)
	co := newCoordinator(t, Config{Shards: []string{unreachable.URL}})
	h := co.Handler()
	cases := []struct {
		path, body, code string
	}{
		{"/v1/query", `{"keywords":["SN"],"group_size":2,"tenuity":1}`, "missing_dataset"},
		{"/v1/query", `{"dataset":"reviewers","group_size":2,"tenuity":1}`, "missing_keywords"},
		{"/v1/query", `{"dataset":"reviewers","keywords":["SN"],"group_size":0,"tenuity":1}`, "invalid_group_size"},
		{"/v1/query", `{"dataset":"reviewers","keywords":["SN"],"group_size":2,"tenuity":1,"algorithm":"nope"}`, "unknown_algorithm"},
		{"/v1/query", `{"dataset":"reviewers","keywords":["SN"],"group_size":2,"tenuity":1,"slice_count":2}`, "invalid_slice"},
		{"/v1/diverse", `{"dataset":"reviewers","keywords":["SN"],"group_size":2,"tenuity":1,"gamma":1.5}`, "invalid_gamma"},
	}
	for _, tc := range cases {
		rec, got := postJSON(t, h, tc.path, tc.body)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s %s: status %d, want 400", tc.path, tc.body, rec.Code)
		}
		errObj, _ := got["error"].(map[string]any)
		if errObj["code"] != tc.code {
			t.Fatalf("%s: code %v, want %s", tc.body, errObj["code"], tc.code)
		}
	}
}

// TestCoordinatorForwardsWholeQueries: greedy and diverse do not
// decompose; the coordinator forwards them whole and the answers match
// a direct shard call.
func TestCoordinatorForwardsWholeQueries(t *testing.T) {
	sh := startShard(t, server.Config{})
	co := newCoordinator(t, Config{Shards: []string{sh.URL}})
	h := co.Handler()

	greedy := `{"dataset":"reviewers","keywords":["SN","DQ"],"group_size":3,"tenuity":1,"algorithm":"greedy"}`
	res, err := http.Post(sh.URL+"/v1/query", "application/json", strings.NewReader(greedy))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]any
	_ = json.NewDecoder(res.Body).Decode(&want)
	res.Body.Close()

	rec, got := postJSON(t, h, "/v1/query", greedy)
	if rec.Code != http.StatusOK {
		t.Fatalf("forwarded greedy: %d %v", rec.Code, got)
	}
	if !reflect.DeepEqual(want["groups"], got["groups"]) {
		t.Fatalf("forwarded greedy differs:\nwant %v\ngot  %v", want["groups"], got["groups"])
	}

	rec, got = postJSON(t, h, "/v1/diverse",
		`{"dataset":"reviewers","keywords":["SN","QP","DQ","GQ","GD"],"group_size":3,"tenuity":1,"top_n":2}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("forwarded diverse: %d %v", rec.Code, got)
	}
	if got["diversity"] == nil {
		t.Fatalf("diverse response lacks diversity: %v", got)
	}
	// Structured 4xx propagate unchanged (unknown dataset → 404).
	rec, got = postJSON(t, h, "/v1/query",
		`{"dataset":"nope","keywords":["SN"],"group_size":2,"tenuity":1,"algorithm":"greedy"}`)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown dataset through coordinator: %d %v", rec.Code, got)
	}
}

// TestCoordinatorTraceSpansFleet: one trace ID covers the coordinator
// span and the shard-side spans — the shard's trace store receives a
// fragment under the coordinator's trace ID.
func TestCoordinatorTraceSpansFleet(t *testing.T) {
	shardTraces := obs.NewTraceStore(obs.TraceStoreConfig{})
	sh := startShard(t, server.Config{TraceStore: shardTraces})
	coordTraces := obs.NewTraceStore(obs.TraceStoreConfig{})
	co := newCoordinator(t, Config{Shards: []string{sh.URL}, TraceStore: coordTraces})
	ts := httptest.NewServer(co.Handler())
	t.Cleanup(ts.Close)

	res, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(goodBody))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", res.StatusCode)
	}
	traceID := res.Header.Get("X-Trace-Id")
	if traceID == "" {
		t.Fatal("coordinator response lacks X-Trace-Id")
	}

	ctr := awaitTrace(t, coordTraces, traceID)
	var names []string
	for _, sp := range ctr.Spans {
		names = append(names, sp.Name)
	}
	joined := strings.Join(names, " ")
	if !strings.Contains(joined, "coord /v1/query") || !strings.Contains(joined, "client /v1/query/partial") {
		t.Fatalf("coordinator trace lacks coord/client spans: %v", names)
	}

	str := awaitTrace(t, shardTraces, traceID)
	joined = ""
	for _, sp := range str.Spans {
		joined += sp.Name + " "
	}
	if !strings.Contains(joined, "server /v1/query/partial") || !strings.Contains(joined, "search.partial") {
		t.Fatalf("shard trace fragment lacks partial-search spans: %v", joined)
	}
}

func awaitTrace(t *testing.T, store *obs.TraceStore, id string) *obs.StoredTrace {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if tr := store.Get(id); tr != nil {
			return tr
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never reached the store", id)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCoordinatorShardsEndpoint: the fleet-status endpoint reports
// per-shard health, breaker state, and client stats.
func TestCoordinatorShardsEndpoint(t *testing.T) {
	sh := startShard(t, server.Config{})
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	t.Cleanup(dead.Close)
	co := newCoordinator(t, Config{Shards: []string{sh.URL, dead.URL}})
	h := co.Handler()
	// Drive one query so the stats have something to show.
	if rec, out := postJSON(t, h, "/v1/query", goodBody); rec.Code != http.StatusOK {
		t.Fatalf("query: %d %v", rec.Code, out)
	}

	req := httptest.NewRequest(http.MethodGet, "/v1/shards", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var out struct {
		Shards []shardStatus `json:"shards"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("bad /v1/shards body: %v", err)
	}
	if len(out.Shards) != 2 {
		t.Fatalf("want 2 shards, got %+v", out.Shards)
	}
	byURL := map[string]shardStatus{}
	for _, s := range out.Shards {
		byURL[s.URL] = s
	}
	if !byURL[sh.URL].Healthy || byURL[sh.URL].Stats.Calls == 0 {
		t.Fatalf("healthy shard misreported: %+v", byURL[sh.URL])
	}
	if byURL[dead.URL].Healthy || byURL[dead.URL].Stats.Errors == 0 {
		t.Fatalf("dead shard misreported: %+v", byURL[dead.URL])
	}
}

// TestCoordinatorDrain mirrors the single-node drain contract.
func TestCoordinatorDrain(t *testing.T) {
	sh := startShard(t, server.Config{})
	co := newCoordinator(t, Config{Shards: []string{sh.URL}})
	co.Drain()
	h := co.Handler()

	req := httptest.NewRequest(http.MethodGet, "/readyz", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining = %d", rec.Code)
	}
	qrec, got := postJSON(t, h, "/v1/query", goodBody)
	if qrec.Code != http.StatusServiceUnavailable {
		t.Fatalf("query while draining = %d", qrec.Code)
	}
	errObj, _ := got["error"].(map[string]any)
	if errObj["code"] != "draining" {
		t.Fatalf("drain code = %v", errObj)
	}
	if qrec.Header().Get("Retry-After") == "" {
		t.Fatal("drain rejection lacks Retry-After")
	}
}
