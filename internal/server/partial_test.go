package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"ktg"
)

func postPartial(t *testing.T, h http.Handler, body string) (*httptest.ResponseRecorder, *PartialResponse) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/query/partial", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return rec, nil
	}
	var resp PartialResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("partial response is not JSON: %v\n%s", err, rec.Body.String())
	}
	return rec, &resp
}

// TestPartialEndpointMergesToSingleNode: two slices fetched over the
// HTTP endpoint, decoded from the wire, merged — byte-identical groups
// to the /v1/query answer for the same query.
func TestPartialEndpointMergesToSingleNode(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()

	rec, direct := postJSON(t, h, "/v1/query", goodBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/query: %d %v", rec.Code, direct)
	}
	wantGroups := direct["groups"]

	parts := make([]*ktg.PartialResult, 2)
	for i := range parts {
		body := fmt.Sprintf(`{"dataset":"reviewers","keywords":["SN","QP","DQ","GQ","GD"],"group_size":3,"tenuity":1,"top_n":2,"slice_index":%d,"slice_count":2}`, i)
		prec, resp := postPartial(t, h, body)
		if resp == nil {
			t.Fatalf("slice %d: %d %s", i, prec.Code, prec.Body.String())
		}
		if resp.SliceIndex != i || resp.SliceCount != 2 {
			t.Fatalf("slice echo mismatch: %+v", resp)
		}
		if prec.Header().Get("X-KTG-Cache") != "" {
			t.Fatal("partial response went through the result cache")
		}
		parts[i] = wirePartToPublic(resp)
	}
	merged, exact, err := ktg.MergePartials(2, parts)
	if err != nil {
		t.Fatal(err)
	}
	if !exact {
		t.Fatal("full partition merged inexact")
	}
	mergedJSON := make([]ktg.Group, 0, len(merged.Groups))
	for _, g := range merged.Groups {
		mergedJSON = append(mergedJSON, ktg.Group{Members: g.Members, Covered: g.Covered, QKC: g.QKC})
	}
	raw, _ := json.Marshal(map[string]any{"groups": mergedJSON})
	var norm map[string]any
	_ = json.Unmarshal(raw, &norm)
	if !reflect.DeepEqual(wantGroups, norm["groups"]) {
		t.Fatalf("merged groups differ from /v1/query\nwant %v\ngot  %v", wantGroups, norm["groups"])
	}
}

// wirePartToPublic converts a wire PartialResponse into the public
// merge input, as the coordinator does.
func wirePartToPublic(resp *PartialResponse) *ktg.PartialResult {
	out := &ktg.PartialResult{
		Slice:        ktg.CandidateSlice{Index: resp.SliceIndex, Count: resp.SliceCount},
		FrontierSize: resp.FrontierSize,
		QueryWidth:   resp.QueryWidth,
		Best:         resp.Best,
		Threshold:    resp.Threshold,
		Truncated:    resp.Partial,
		Stats:        resp.Stats,
	}
	for _, o := range resp.Offers {
		out.Offers = append(out.Offers, ktg.PartialOffer{
			Group:    ktg.Group{Members: o.Members, Covered: o.Covered, QKC: o.QKC},
			Coverage: o.Coverage,
			RootPos:  o.RootPos,
			Seq:      o.Seq,
		})
	}
	for _, g := range resp.Groups {
		out.Groups = append(out.Groups, ktg.Group{Members: g.Members, Covered: g.Covered, QKC: g.QKC})
	}
	return out
}

// TestPartialValidation: slice parameters are accepted only on the
// partial endpoint, and only with sane values and mergeable algorithms.
func TestPartialValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	cases := []struct {
		name, path, body, code string
	}{
		{"slice on query", "/v1/query",
			`{"dataset":"reviewers","keywords":["SN"],"group_size":2,"tenuity":1,"slice_count":2}`,
			"invalid_slice"},
		{"slice on diverse", "/v1/diverse",
			`{"dataset":"reviewers","keywords":["SN"],"group_size":2,"tenuity":1,"slice_index":1,"slice_count":2}`,
			"invalid_slice"},
		{"missing count", "/v1/query/partial",
			`{"dataset":"reviewers","keywords":["SN"],"group_size":2,"tenuity":1}`,
			"invalid_slice"},
		{"index out of range", "/v1/query/partial",
			`{"dataset":"reviewers","keywords":["SN"],"group_size":2,"tenuity":1,"slice_index":2,"slice_count":2}`,
			"invalid_slice"},
		{"negative index", "/v1/query/partial",
			`{"dataset":"reviewers","keywords":["SN"],"group_size":2,"tenuity":1,"slice_index":-1,"slice_count":2}`,
			"invalid_slice"},
		{"greedy not mergeable", "/v1/query/partial",
			`{"dataset":"reviewers","keywords":["SN"],"group_size":2,"tenuity":1,"slice_count":2,"algorithm":"greedy"}`,
			"unknown_algorithm"},
		{"brute not mergeable", "/v1/query/partial",
			`{"dataset":"reviewers","keywords":["SN"],"group_size":2,"tenuity":1,"slice_count":2,"algorithm":"brute"}`,
			"unknown_algorithm"},
	}
	for _, tc := range cases {
		rec, out := postJSON(t, h, tc.path, tc.body)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (%v)", tc.name, rec.Code, out)
		}
		errObj, _ := out["error"].(map[string]any)
		if errObj["code"] != tc.code {
			t.Fatalf("%s: code %v, want %s", tc.name, errObj["code"], tc.code)
		}
	}
	// slice_index 0 with slice_count 1 is the degenerate single-shard
	// case and must work.
	_, resp := postPartial(t, h, `{"dataset":"reviewers","keywords":["SN","DQ"],"group_size":2,"tenuity":1,"slice_count":1}`)
	if resp == nil {
		t.Fatal("single-slice partial rejected")
	}
	if resp.SliceCount != 1 || resp.Partial {
		t.Fatalf("unexpected single-slice response: %+v", resp)
	}
}

// TestPartialBudgetMarksPartial: a node-budget slice answer carries
// partial:true so the coordinator can flag the merged answer inexact.
func TestPartialBudgetMarksPartial(t *testing.T) {
	s := newTestServer(t, Config{})
	_, resp := postPartial(t, s.Handler(),
		`{"dataset":"reviewers","keywords":["SN","QP","DQ","GQ","GD"],"group_size":3,"tenuity":1,"slice_count":2,"max_nodes":1}`)
	if resp == nil {
		t.Fatal("budgeted partial request failed outright")
	}
	if !resp.Partial || resp.PartialReason != "budget" {
		t.Fatalf("want partial budget flags, got %+v", resp)
	}
}

// TestPartialDrainingRejected mirrors the /v1/query drain contract.
func TestPartialDrainingRejected(t *testing.T) {
	s := newTestServer(t, Config{})
	s.Drain()
	rec, _ := postPartial(t, s.Handler(),
		`{"dataset":"reviewers","keywords":["SN"],"group_size":2,"tenuity":1,"slice_count":2}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining partial request: %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("draining rejection missing Retry-After")
	}
}
