package client

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

func partialBody() string {
	return `{"dataset":"d","algorithm":"vkc-deg","slice_index":1,"slice_count":2,` +
		`"frontier_size":7,"query_width":3,"best":2,"threshold":-1,` +
		`"offers":[{"members":[1,2],"covered":["a","b"],"qkc":0.6667,"coverage":2,"root_pos":3,"seq":0}],` +
		`"groups":[{"members":[1,2],"covered":["a","b"],"qkc":0.6667}],` +
		`"stats":{"nodes":5}}`
}

// TestQueryPartialRetriesAndDecodes: the partial endpoint rides the
// same retry pipeline as Query, and the wire body decodes into the
// merge-ready shape.
func TestQueryPartialRetriesAndDecodes(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/query/partial" {
			t.Errorf("unexpected path %s", r.URL.Path)
		}
		var req Request
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("bad request body: %v", err)
		}
		if req.SliceIndex != 1 || req.SliceCount != 2 {
			t.Errorf("slice fields not on the wire: %+v", req)
		}
		if calls.Add(1) == 1 {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":{"code":"draining","message":"shutting down"}}`)
			return
		}
		fmt.Fprint(w, partialBody())
	}))
	defer ts.Close()

	c, err := New(fastConfig(ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.QueryPartial(context.Background(), &Request{
		Dataset: "d", Keywords: []string{"a", "b", "c"}, GroupSize: 2, Tenuity: 1,
		SliceIndex: 1, SliceCount: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Attempts != 2 || resp.RequestID == "" {
		t.Fatalf("call metadata not filled: %+v", resp)
	}
	if resp.SliceIndex != 1 || resp.SliceCount != 2 || resp.FrontierSize != 7 {
		t.Fatalf("wire fields not decoded: %+v", resp)
	}
	if len(resp.Offers) != 1 || resp.Offers[0].RootPos != 3 || resp.Offers[0].Coverage != 2 {
		t.Fatalf("offers not decoded: %+v", resp.Offers)
	}
	if resp.Stats.Nodes != 5 {
		t.Fatalf("stats not decoded: %+v", resp.Stats)
	}

	pr := resp.PartialResult()
	if pr.Slice.Index != 1 || pr.Slice.Count != 2 || pr.Truncated {
		t.Fatalf("PartialResult conversion wrong: %+v", pr)
	}
	if len(pr.Offers) != 1 || pr.Offers[0].Members[0] != 1 || pr.Offers[0].Seq != 0 {
		t.Fatalf("offer conversion wrong: %+v", pr.Offers)
	}
	if st := c.Stats(); st.Retries != 1 || st.Partial != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestQueryPartialCountsPartialFlag: a truncated slice bumps the
// partial counter exactly like a partial /v1/query answer.
func TestQueryPartialCountsPartialFlag(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"dataset":"d","slice_index":0,"slice_count":2,"partial":true,"partial_reason":"budget","stats":{}}`)
	}))
	defer ts.Close()
	c, err := New(fastConfig(ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.QueryPartial(context.Background(), &Request{Dataset: "d", SliceCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Partial || resp.PartialReason != "budget" {
		t.Fatalf("partial flags lost: %+v", resp)
	}
	if !resp.PartialResult().Truncated {
		t.Fatal("truncation not carried into the merge input")
	}
	if st := c.Stats(); st.Partial != 1 {
		t.Fatalf("partial not counted: %+v", st)
	}
}

// TestPerTargetStats: clients normalize their target, and each client
// counts only its own calls, even when several share a target.
func TestPerTargetStats(t *testing.T) {
	ok := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, okBody())
	})
	tsA := httptest.NewServer(ok)
	defer tsA.Close()

	a1, _ := New(fastConfig(tsA.URL))
	a2, _ := New(fastConfig(tsA.URL + "/")) // trailing slash normalizes to the same target
	if a1.Target() != tsA.URL || a2.Target() != tsA.URL {
		t.Fatalf("targets not normalized: %q %q", a1.Target(), a2.Target())
	}

	req := &Request{Dataset: "d", Keywords: []string{"a"}, GroupSize: 2, Tenuity: 1}
	for _, c := range []*Client{a1, a2, a1} {
		if _, err := c.Query(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	if a1.Stats().Calls != 2 || a2.Stats().Calls != 1 {
		t.Fatalf("instance stats polluted: a1=%+v a2=%+v", a1.Stats(), a2.Stats())
	}
}
