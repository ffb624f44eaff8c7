package shard_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"ktg"
	"ktg/internal/client"
	"ktg/internal/obs"
	"ktg/internal/server"
	"ktg/internal/shard"
)

// frontEnd is one /v1 surface under test. shards lists a coordinator's
// shard base URLs, which its bodies name and the golden masks.
type frontEnd struct {
	name   string
	url    string
	shards []string
}

// startFrontEnds boots the three /v1 front ends over the reviewer
// fixture: a static server, a live server, and a coordinator over two
// live shards.
func startFrontEnds(t *testing.T) []frontEnd {
	t.Helper()
	serve := func(live bool) string {
		nw := shard.ReviewerNetwork(t)
		idx, err := nw.BuildNLRNL()
		if err != nil {
			t.Fatal(err)
		}
		ds := &server.Dataset{Name: "reviewers", Network: nw, Index: idx}
		if live {
			if ds.Live, err = ktg.NewLiveNetwork(nw, idx); err != nil {
				t.Fatal(err)
			}
		}
		s, err := server.New(server.Config{Logger: obs.NopLogger()}, ds)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		return ts.URL
	}
	static, live := serve(false), serve(true)
	shards := []string{serve(true), serve(true)}
	co, err := shard.New(shard.Config{Shards: shards, Logger: obs.NopLogger()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(co.Handler())
	t.Cleanup(ts.Close)
	return []frontEnd{{"server", static, nil}, {"live", live, nil}, {"coord", ts.URL, shards}}
}

// wireCase is one request of the golden sequence. nodeOnly marks the
// shard-worker endpoint, which a coordinator does not serve.
type wireCase struct {
	name, method, path, body string
	nodeOnly                 bool
}

const wireQuery = `"dataset":"reviewers","keywords":["SN","QP","DQ","GQ","GD"],"group_size":3,"tenuity":1`

// wireCases run in order against every front end; the cache status and
// the live epoch depend on what ran before.
var wireCases = []wireCase{
	{name: "query", method: "POST", path: "/v1/query", body: `{` + wireQuery + `,"top_n":2}`},
	{name: "query again", method: "POST", path: "/v1/query", body: `{` + wireQuery + `,"top_n":2}`},
	{name: "explain", method: "POST", path: "/v1/query", body: `{` + wireQuery + `,"top_n":2,"explain":true}`},
	{name: "empty result", method: "POST", path: "/v1/query", body: `{"dataset":"reviewers","keywords":["SN"],"group_size":12,"tenuity":1}`},
	{name: "budget", method: "POST", path: "/v1/query", body: `{` + wireQuery + `,"top_n":4,"max_nodes":2}`},
	{name: "greedy", method: "POST", path: "/v1/query", body: `{` + wireQuery + `,"top_n":2,"algorithm":"greedy"}`},
	{name: "brute", method: "POST", path: "/v1/query", body: `{"dataset":"reviewers","keywords":["SN","DQ"],"group_size":2,"tenuity":1,"top_n":3,"algorithm":"brute"}`},
	{name: "diverse", method: "POST", path: "/v1/diverse", body: `{` + wireQuery + `,"top_n":3,"gamma":0.5}`},
	{name: "unknown dataset", method: "POST", path: "/v1/query", body: `{"dataset":"nope","keywords":["SN"],"group_size":2,"tenuity":1}`},
	{name: "over limit", method: "POST", path: "/v1/query", body: `{` + wireQuery + `,"top_n":101}`},
	{name: "partial", method: "POST", path: "/v1/query/partial", body: `{` + wireQuery + `,"top_n":2,"slice_index":0,"slice_count":2}`, nodeOnly: true},
	{name: "partial explain", method: "POST", path: "/v1/query/partial", body: `{` + wireQuery + `,"top_n":2,"slice_index":1,"slice_count":2,"explain":true}`, nodeOnly: true},
	{name: "empty partial", method: "POST", path: "/v1/query/partial", body: `{"dataset":"reviewers","keywords":["SN"],"group_size":12,"tenuity":1,"slice_index":0,"slice_count":2}`, nodeOnly: true},
	{name: "edge batch", method: "POST", path: "/v1/edges", body: `{"dataset":"reviewers","edges":[{"op":"insert","u":1,"v":5},{"op":"delete","u":0,"v":1},{"op":"delete","u":1,"v":2}]}`},
	{name: "query after edges", method: "POST", path: "/v1/query", body: `{` + wireQuery + `,"top_n":2}`},
	{name: "datasets", method: "GET", path: "/v1/datasets"},
}

// timingField matches the JSON fields whose values are wall-clock
// measurements.
var timingField = regexp.MustCompile(`("(?:compile_ns|candidate_ns|explore_ns|elapsed_ns|time_to_first_result_ns|time_to_final_improvement_ns)": )\d+`)

// boundTrajectory matches an explain plan's bound trajectory, an array
// of flat objects.
var boundTrajectory = regexp.MustCompile(`"bound_trajectory": \[[^\]]*\]`)

// maskWire zeroes timing fields and names a coordinator's shards by
// position. A coordinator's merged bound trajectory interleaves the
// shards' steps in time order, so its contents are left out.
func maskWire(raw []byte, shards []string) []byte {
	out := timingField.ReplaceAll(raw, []byte("${1}0"))
	if shards == nil {
		return out
	}
	for i, u := range shards {
		out = bytes.ReplaceAll(out, []byte(u), []byte(fmt.Sprintf("shard-%d", i)))
	}
	return boundTrajectory.ReplaceAll(out, []byte(`"bound_trajectory": "(left out)"`))
}

// clientBody returns the client type that decodes a 200 answer of the
// case's endpoint, or nil for the dataset listing, which no client call
// reads.
func clientBody(c wireCase) any {
	switch c.path {
	case "/v1/query", "/v1/diverse":
		return new(client.Response)
	case "/v1/query/partial":
		return new(client.PartialResponse)
	case "/v1/edges":
		return new(client.MutationResponse)
	}
	return nil
}

// TestWireGolden pins every /v1 body the three front ends send for one
// request sequence, apart from timing fields, against
// testdata/wire.golden. It also requires each answer a client call
// reads to survive a decode into the client's type and an encode with
// the server's encoder byte for byte, so the client drops and reorders
// nothing.
func TestWireGolden(t *testing.T) {
	var got bytes.Buffer
	for _, fe := range startFrontEnds(t) {
		for _, c := range wireCases {
			if c.nodeOnly && fe.shards != nil {
				continue
			}
			req, err := http.NewRequest(c.method, fe.url+c.path, strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			res, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := io.ReadAll(res.Body)
			res.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "=== %s %s %s (%s)\n%d\n", fe.name, c.method, c.path, c.name, res.StatusCode)
			got.Write(maskWire(raw, fe.shards))

			body := clientBody(c)
			if res.StatusCode != http.StatusOK || body == nil {
				continue
			}
			if err := json.Unmarshal(raw, body); err != nil {
				t.Fatalf("%s %s: client decode: %v", fe.name, c.name, err)
			}
			rec := httptest.NewRecorder()
			server.WriteJSON(rec, http.StatusOK, body)
			if again := rec.Body.String(); again != string(raw) {
				t.Errorf("%s %s: the client's %T does not re-encode the answer\nwire   %s\nclient %s", fe.name, c.name, body, raw, again)
			}
		}
	}

	want, err := os.ReadFile("testdata/wire.golden")
	if err != nil {
		t.Fatal(err)
	}
	gotSections := strings.SplitAfter(got.String(), "\n=== ")
	wantSections := strings.SplitAfter(string(want), "\n=== ")
	for i := 0; i < len(gotSections) || i < len(wantSections); i++ {
		var g, w string
		if i < len(gotSections) {
			g = gotSections[i]
		}
		if i < len(wantSections) {
			w = wantSections[i]
		}
		if g != w {
			t.Fatalf("wire section %d differs from testdata/wire.golden\nwant:\n%s\ngot:\n%s", i, w, g)
		}
	}
}

// fleetClient is a client of one front end with fast retries, so a
// test that expects no retry fails fast when one happens.
func fleetClient(t *testing.T, fe frontEnd) *client.Client {
	t.Helper()
	c, err := client.New(client.Config{BaseURL: fe.url, MaxAttempts: 4, BackoffBase: time.Millisecond, BackoffCap: 2 * time.Millisecond, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCoordinatorUnknownDatasetIs404: a query for a dataset no shard
// serves gets the single node's 404 unknown_dataset from the
// coordinator on the first attempt, not a 503 the client retries.
func TestCoordinatorUnknownDatasetIs404(t *testing.T) {
	c := fleetClient(t, startFrontEnds(t)[2])
	_, err := c.Query(context.Background(), &client.Request{Dataset: "nope", Keywords: []string{"SN"}, GroupSize: 2, Tenuity: 1})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound || apiErr.Code != "unknown_dataset" {
		t.Fatalf("coordinator answered %v, want a 404 unknown_dataset", err)
	}
	if n := c.Stats().Attempts; n != 1 {
		t.Fatalf("the client made %d attempts, want 1", n)
	}
}

// TestCoordinatorMutateEdgesReadsLikeSingleNode: client.MutateEdges
// through a coordinator reads the outcome a single live node reports
// for the same batch.
func TestCoordinatorMutateEdgesReadsLikeSingleNode(t *testing.T) {
	fronts := startFrontEnds(t)
	batch := &client.MutationRequest{Dataset: "reviewers", Edges: []client.EdgeOp{
		{Op: "insert", U: 1, V: 5}, {Op: "delete", U: 0, V: 1}, {Op: "delete", U: 1, V: 2},
	}}
	single, err := fleetClient(t, fronts[1]).MutateEdges(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := fleetClient(t, fronts[2]).MutateEdges(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if !single.Swapped || single.Applied == 0 {
		t.Fatalf("the single node did not apply the batch: %+v", single.MutationResponse)
	}
	if !fleet.Swapped || fleet.Epoch != single.Epoch || fleet.Applied != single.Applied ||
		fleet.Ignored != single.Ignored || fleet.AffectedVertices != single.AffectedVertices || fleet.EpochSkew {
		t.Fatalf("coordinator outcome %+v, single node %+v", fleet.MutationResponse, single.MutationResponse)
	}
}

// TestLimitParity: a request past one request-shape limit gets the same
// 400 body from every front end, single node or coordinator.
func TestLimitParity(t *testing.T) {
	kws := make([]string, 65)
	for i := range kws {
		kws[i] = fmt.Sprintf(`"kw%d"`, i)
	}
	fronts := startFrontEnds(t)
	for _, tc := range []struct {
		body, code string
	}{
		{`{"dataset":"reviewers","keywords":[` + strings.Join(kws, ",") + `],"group_size":3,"tenuity":1}`, "too_many_keywords"},
		{`{"dataset":"reviewers","keywords":["SN"],"group_size":17,"tenuity":1}`, "invalid_group_size"},
		{`{"dataset":"reviewers","keywords":["SN"],"group_size":3,"tenuity":1,"top_n":101}`, "invalid_top_n"},
	} {
		var first []byte
		for _, fe := range fronts {
			res, err := http.Post(fe.url+"/v1/query", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			raw, err := io.ReadAll(res.Body)
			res.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			var out struct {
				Error struct {
					Code string `json:"code"`
				} `json:"error"`
			}
			if err := json.Unmarshal(raw, &out); err != nil || res.StatusCode != http.StatusBadRequest || out.Error.Code != tc.code {
				t.Fatalf("%s: status %d body %s, want 400 %s", fe.name, res.StatusCode, raw, tc.code)
			}
			if first == nil {
				first = raw
			} else if !bytes.Equal(raw, first) {
				t.Fatalf("%s answers %s, the server %s", fe.name, raw, first)
			}
		}
	}
}
