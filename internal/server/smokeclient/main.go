// Command smokeclient is verify.sh's end-to-end probe for ktgserver,
// built on the resilient internal/client. It first proves the client's
// own retry discipline against an embedded stub — a 429 with
// Retry-After must be waited out, not hammered, under one stable
// request ID — then probes the real server: health, one KTG query
// (cache miss) repeated as a cache hit, one DKTG query, and a
// malformed request yielding a typed 400, and finally that the first
// query's trace is retrievable from /debug/traces/{id} with both the
// server request span and a search child span. It exits non-zero on
// the first failed expectation.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"time"

	"ktg/internal/client"
	"ktg/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "ktgserver address")
	dataset := flag.String("dataset", "brightkite", "dataset to query")
	mutate := flag.Bool("mutate", false, "also probe POST /v1/edges (requires the server to run -mutable)")
	walPrep := flag.Bool("wal-prepare", false, "durability smoke, phase 1: mutate and record the state a restart must reproduce in -state-file")
	walVer := flag.Bool("wal-verify", false, "durability smoke, phase 2: after a crash+restart, verify -state-file's epoch and answer survived")
	stateFile := flag.String("state-file", "", "state file for -wal-prepare / -wal-verify")
	flag.Parse()

	if (*walPrep || *walVer) && *stateFile == "" {
		fail("-wal-prepare/-wal-verify require -state-file")
	}
	if *walVer {
		walVerify(*addr, *stateFile)
		return
	}

	selfCheckRetryAfter()

	cl, err := client.New(client.Config{
		BaseURL:        "http://" + *addr,
		AttemptTimeout: 60 * time.Second,
	})
	if err != nil {
		fail("building client: %v", err)
	}
	ctx := context.Background()

	if err := cl.Health(ctx); err != nil {
		fail("healthz: %v", err)
	}

	req := &client.Request{
		Dataset:   *dataset,
		Keywords:  []string{"kw0000", "kw0001", "kw0002", "kw0003"},
		GroupSize: 3,
		Tenuity:   2,
		TopN:      3,
	}
	first, err := cl.Query(ctx, req)
	if err != nil {
		fail("/v1/query: %v", err)
	}
	if first.Groups == nil {
		fail("/v1/query response lacks groups: %+v", first)
	}
	if first.Cache != "miss" {
		fail("/v1/query first run cache = %q, want miss", first.Cache)
	}
	if first.RequestID == "" {
		fail("/v1/query response lacks a request ID")
	}
	second, err := cl.Query(ctx, req)
	if err != nil {
		fail("/v1/query repeat: %v", err)
	}
	if second.Cache != "hit" {
		fail("/v1/query repeat cache = %q, want hit", second.Cache)
	}

	gamma := 0.5
	dreq := *req
	dreq.Gamma = &gamma
	dres, err := cl.Diverse(ctx, &dreq)
	if err != nil {
		fail("/v1/diverse: %v", err)
	}
	if dres.Diversity == nil {
		fail("/v1/diverse response lacks diversity: %+v", dres)
	}

	_, err = cl.Query(ctx, &client.Request{Dataset: "nope"})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest || apiErr.Code == "" {
		fail("invalid request: err = %v, want a structured *APIError with status 400", err)
	}

	checkTrace(*addr, first.TraceID)

	if *mutate {
		mutateSmoke(ctx, cl, *addr, *dataset, req, first)
	}
	if *walPrep {
		walPrepare(ctx, cl, *addr, *dataset, *stateFile)
	}

	fmt.Println("smokeclient: ok")
}

// mutateSmoke proves the live-mutation contract end to end: the dataset
// advertises mutable with a live epoch, an edge batch touching answer
// members swaps exactly one new epoch, the cached answer for the
// touched keywords does not survive the swap, the fresh answer reports
// the new epoch, and a malformed op is a typed 400.
func mutateSmoke(ctx context.Context, cl *client.Client, addr, dataset string, req *client.Request, first *client.Response) {
	e0 := datasetEpoch(addr, dataset)
	if e0 == 0 {
		fail("mutate: /v1/datasets reports %q with epoch 0; is the server running -mutable?", dataset)
	}

	// Mutate between two members of the cached answer: members are
	// keyword-covering candidates, so the affected-keyword set must
	// intersect the query's keywords and the cached entry must go.
	if len(first.Groups) == 0 || len(first.Groups[0].Members) < 2 {
		fail("mutate: first answer has no 2-member group to mutate around: %+v", first.Groups)
	}
	u := int64(first.Groups[0].Members[0])
	v := int64(first.Groups[0].Members[1])
	// delete-then-insert in one batch: whichever of the two states the
	// edge is in, at least one op applies, so the batch always swaps.
	mres, err := cl.MutateEdges(ctx, &client.MutationRequest{
		Dataset: dataset,
		Edges: []client.EdgeOp{
			{Op: "delete", U: u, V: v},
			{Op: "insert", U: u, V: v},
		},
	})
	if err != nil {
		fail("mutate: /v1/edges: %v", err)
	}
	if !mres.Swapped || mres.Applied < 1 {
		fail("mutate: batch did not swap (swapped=%v applied=%d ignored=%d)", mres.Swapped, mres.Applied, mres.Ignored)
	}
	if mres.Epoch != e0+1 {
		fail("mutate: epoch after batch = %d, want %d", mres.Epoch, e0+1)
	}
	if mres.RequestID == "" {
		fail("mutate: /v1/edges response lacks a request ID")
	}

	after, err := cl.Query(ctx, req)
	if err != nil {
		fail("mutate: /v1/query after mutation: %v", err)
	}
	if after.Cache == "hit" {
		fail("mutate: stale cache hit survived a mutation touching the answer's members (epoch %d)", mres.Epoch)
	}
	if after.Epoch != mres.Epoch {
		fail("mutate: post-mutation answer reports epoch %d, want %d", after.Epoch, mres.Epoch)
	}
	if got := datasetEpoch(addr, dataset); got != mres.Epoch {
		fail("mutate: /v1/datasets epoch = %d after batch, want %d", got, mres.Epoch)
	}

	_, err = cl.MutateEdges(ctx, &client.MutationRequest{
		Dataset: dataset,
		Edges:   []client.EdgeOp{{Op: "frobnicate", U: u, V: v}},
	})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest || apiErr.Code != "invalid_edge" {
		fail("mutate: malformed op: err = %v, want a structured 400 invalid_edge", err)
	}
}

// datasetEpoch reads one dataset's live epoch from /v1/datasets (0 for
// static datasets or when the dataset is missing).
func datasetEpoch(addr, dataset string) uint64 {
	res, err := http.Get("http://" + addr + "/v1/datasets")
	if err != nil {
		fail("mutate: /v1/datasets: %v", err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		fail("mutate: /v1/datasets: status %d", res.StatusCode)
	}
	var list server.DatasetList
	if err := json.NewDecoder(res.Body).Decode(&list); err != nil {
		fail("mutate: decoding /v1/datasets: %v", err)
	}
	for _, d := range list.Datasets {
		if d.Name == dataset {
			if d.Epoch != 0 && !d.Mutable {
				fail("mutate: /v1/datasets reports epoch %d but mutable=false for %q", d.Epoch, dataset)
			}
			return d.Epoch
		}
	}
	fail("mutate: dataset %q not in /v1/datasets", dataset)
	return 0
}

// checkTrace proves the end-to-end tracing contract: the query's
// X-Trace-Id (surfaced as Response.TraceID) resolves in the server's
// trace store and the stored trace holds both the server request span
// and at least one search child span.
func checkTrace(addr, traceID string) {
	if traceID == "" {
		fail("/v1/query response lacks a trace ID (X-Trace-Id header missing)")
	}
	res, err := http.Get("http://" + addr + "/debug/traces/" + traceID)
	if err != nil {
		fail("/debug/traces/%s: %v", traceID, err)
	}
	defer res.Body.Close()
	body, _ := io.ReadAll(res.Body)
	if res.StatusCode != http.StatusOK {
		fail("/debug/traces/%s: status %d: %s", traceID, res.StatusCode, body)
	}
	for _, span := range []string{`"server /v1/query"`, `"search.`} {
		if !strings.Contains(string(body), span) {
			fail("/debug/traces/%s lacks a %s span: %s", traceID, span, body)
		}
	}
}

// selfCheckRetryAfter proves, against a local stub, that the client
// waits out a 429's Retry-After instead of hammering: exactly two
// attempts, both under the same X-Request-Id, at least ~1s apart.
func selfCheckRetryAfter() {
	var (
		mu    sync.Mutex
		times []time.Time
		ids   []string
	)
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		times = append(times, time.Now())
		ids = append(ids, r.Header.Get("X-Request-Id"))
		n := len(times)
		mu.Unlock()
		if n == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":{"code":"overloaded","message":"queue full"}}`)
			return
		}
		fmt.Fprint(w, `{"dataset":"stub","algorithm":"ktg-basic","groups":[],"cache":"miss"}`)
	}))
	defer stub.Close()

	cl, err := client.New(client.Config{
		BaseURL: stub.URL,
		// Backoff far below the header's 1s: any properly spaced retry is
		// the Retry-After's doing, not the backoff's.
		BackoffBase: time.Millisecond,
		BackoffCap:  2 * time.Millisecond,
		Seed:        1,
	})
	if err != nil {
		fail("self-check: building client: %v", err)
	}
	resp, err := cl.Query(context.Background(), &client.Request{Dataset: "stub", Keywords: []string{"a"}, GroupSize: 2, Tenuity: 1})
	if err != nil {
		fail("self-check: query: %v", err)
	}
	if len(times) != 2 || resp.Attempts != 2 {
		fail("self-check: stub saw %d attempts (client reports %d), want exactly 2 — a hammered 429", len(times), resp.Attempts)
	}
	if ids[0] == "" || ids[0] != ids[1] {
		fail("self-check: X-Request-Id not stable across the retry: %v", ids)
	}
	if gap := times[1].Sub(times[0]); gap < 900*time.Millisecond {
		fail("self-check: retry arrived %v after the 429; Retry-After: 1 was not honored", gap)
	}
	if st := cl.Stats(); st.RetryAfterHonored != 1 {
		fail("self-check: RetryAfterHonored = %d, want 1", st.RetryAfterHonored)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "smokeclient: "+format+"\n", args...)
	os.Exit(1)
}
