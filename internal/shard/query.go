package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"ktg"
	"ktg/internal/client"
	"ktg/internal/obs"
	"ktg/internal/server"
)

func (co *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	mQueryRequests.Inc()
	start := time.Now()
	defer func() { mQueryLatency.Observe(time.Since(start).Nanoseconds()) }()
	co.serve(w, r, false)
}

func (co *Coordinator) handleDiverse(w http.ResponseWriter, r *http.Request) {
	mDiverseRequests.Inc()
	co.serve(w, r, true)
}

// serve is the coordinator's search pipeline: decode and validate with
// the server's own limits, refuse new work while draining, label the
// flight record, then scatter the query over the fleet or forward it to
// one shard.
func (co *Coordinator) serve(w http.ResponseWriter, r *http.Request, diverse bool) {
	req, aerr := server.DecodeRequest(r, diverse)
	if !co.accept(w, r, aerr) {
		return
	}
	alg := req.Algorithm
	if alg == "" {
		alg = "vkc-deg"
	}
	co.scope.Annotate(r.Context(), req.Dataset, alg)
	if diverse || req.Algorithm == "greedy" || req.Algorithm == "brute" {
		// These answers do not decompose into mergeable frontier slices;
		// every shard holds the full dataset, so one shard answers whole.
		co.forward(w, r, req, diverse)
		return
	}
	co.scatter(w, r, req, alg)
}

// scatter partitions the query's candidate frontier across the fleet
// (slice i of M to shard i), gathers the partial answers, and merges
// them. Shard failures degrade the answer to an explicitly-partial one,
// with shards_failed > 0 — the coordinator never silently returns a
// wrong-looking-complete result; only a fleet-wide failure turns into
// an error, the shards' rejection when the request is at fault. Scattered answers are refused with shard_epoch_skew rather
// than merged across epochs.
func (co *Coordinator) scatter(w http.ResponseWriter, r *http.Request, req *server.QueryRequest, alg string) {
	mScatter.Inc()
	logger := co.scope.Logger(r.Context())
	span := obs.SpanFromContext(r.Context())
	span.SetAttr("dataset", req.Dataset)
	span.SetAttr("shards", strconv.Itoa(len(co.shards)))

	ctx, cancel := context.WithTimeout(r.Context(), server.Timeout(req.TimeoutMillis, co.cfg.DefaultTimeout, co.cfg.MaxTimeout))
	defer cancel()

	total := len(co.shards)
	responses, errs := fanout(co.shards, func(i int, sh *shardConn) (*client.PartialResponse, error) {
		slice := *req
		slice.SliceIndex, slice.SliceCount = i, total
		return sh.c.QueryPartial(ctx, &slice)
	})

	var (
		parts     []*ktg.PartialResult
		explains  []*ktg.Explain
		shardURLs []string
		offers    int64
		failed    int
		lastErr   error
		rejected  *client.APIError
		truncated string
		epoch     uint64
		epochSkew bool
	)
	for i, resp := range responses {
		if errs[i] != nil {
			failed++
			lastErr = errs[i]
			if rejected == nil {
				rejected = rejection(errs[i])
			}
			mShardFailures.With(co.shards[i].base).Inc()
			logger.Warn("shard failed during scatter",
				"shard", co.shards[i].base, "slice", i, "err", errs[i])
			continue
		}
		if len(parts) == 0 {
			epoch = resp.Epoch
		} else if resp.Epoch != epoch {
			epochSkew = true
		}
		if resp.Partial && truncated == "" {
			truncated = resp.PartialReason
		}
		offers += int64(len(resp.Offers))
		parts = append(parts, resp.PartialResult())
		if resp.Explain != nil {
			explains = append(explains, resp.Explain)
			shardURLs = append(shardURLs, co.shards[i].base)
		}
	}
	if len(parts) == 0 {
		if rejected != nil {
			server.Reject(w, r, &rejected.APIError)
			return
		}
		server.Reject(w, r, &server.APIError{
			Status:  http.StatusServiceUnavailable,
			Code:    "all_shards_failed",
			Message: fmt.Sprintf("no shard answered (%d/%d failed; last error: %v)", failed, total, lastErr),
		})
		return
	}
	if epochSkew {
		// Slices from different epochs describe different topologies;
		// merging them could fabricate a group that exists in neither.
		// 502 is retryable — clients land on converged shards next time.
		mEpochSkew.Inc()
		span.Event("merge.epoch_skew", 0)
		logger.Warn("shards answered from different epochs; refusing to merge")
		server.Reject(w, r, &server.APIError{
			Status:  http.StatusBadGateway,
			Code:    "shard_epoch_skew",
			Message: "shards answered from different dataset epochs; retry after mutations settle",
		})
		return
	}
	mMergeOffers.Add(offers)

	merged, exact, err := ktg.MergePartials(req.TopN, parts)
	if err != nil {
		// Shards disagreed on the partition or frontier — they are not
		// serving the same dataset. Refusing is the only safe answer.
		logger.Error("shard answers are inconsistent; refusing to merge", "err", err)
		server.Reject(w, r, &server.APIError{
			Status:  http.StatusBadGateway,
			Code:    "shard_inconsistent",
			Message: fmt.Sprintf("shard answers cannot be merged: %v", err),
		})
		return
	}

	resp := &server.QueryResponse{
		Dataset:      responses[firstOK(errs)].Dataset,
		Algorithm:    alg,
		Groups:       append([]ktg.Group{}, merged.Groups...), // [] when empty, not null
		Stats:        merged.Stats,
		Epoch:        epoch,
		Cache:        "miss",
		ShardsTotal:  total,
		ShardsFailed: failed,
	}
	if req.Explain && len(explains) == len(parts) && len(explains) > 0 {
		// Sum the per-shard counters and depth rows into one plan; since
		// the slices partition the frontier, the merged expand/prune/
		// filter totals are exactly what a single node would have done.
		resp.Explain = ktg.MergeExplains(explains, shardURLs)
		resp.Explain.Algorithm = resp.Algorithm
		resp.Explain.Epoch = epoch
		// Wire parity with the single node: explain runs are defined as
		// cache-bypassing, and the shards did bypass theirs.
		resp.Cache = "bypass"
	}
	if !exact {
		resp.Partial = true
		switch {
		case failed > 0:
			resp.PartialReason = "shard_failure"
		case truncated != "":
			resp.PartialReason = truncated
		default:
			resp.PartialReason = "incomplete"
		}
		span.Event("merge.partial", int64(failed))
	}
	span.SetAttr("shards_failed", strconv.Itoa(failed))
	answer(w, r, resp)
}

func firstOK(errs []error) int {
	for i, err := range errs {
		if err == nil {
			return i
		}
	}
	return 0
}

// rejection returns a shard's structured rejection when the request,
// not the shard, is at fault: a 4xx other than 429, such as an unknown
// dataset or an invalid edge. Every shard holds the same datasets, so
// the fleet passes it through as a single node would answer. Transport
// failures, 429s and 5xx are the shard's own and yield nil.
func rejection(err error) *client.APIError {
	var apiErr *client.APIError
	if errors.As(err, &apiErr) && apiErr.Status < 500 && apiErr.Status != http.StatusTooManyRequests {
		return apiErr
	}
	return nil
}

// forward sends the query whole to one shard, failing over across the
// fleet. Structured 4xx rejections are the caller's bug and propagate
// immediately; transport/5xx failures try the next shard.
func (co *Coordinator) forward(w http.ResponseWriter, r *http.Request, req *server.QueryRequest, diverse bool) {
	mForward.Inc()
	logger := co.scope.Logger(r.Context())
	ctx, cancel := context.WithTimeout(r.Context(), server.Timeout(req.TimeoutMillis, co.cfg.DefaultTimeout, co.cfg.MaxTimeout))
	defer cancel()

	total := len(co.shards)
	start := int(co.rr.Add(1)) % total
	var lastErr error
	failed := 0
	for n := 0; n < total; n++ {
		sh := co.shards[(start+n)%total]
		var (
			resp *client.Response
			err  error
		)
		if diverse {
			resp, err = sh.c.Diverse(ctx, req)
		} else {
			resp, err = sh.c.Query(ctx, req)
		}
		if err == nil {
			resp.ShardsTotal, resp.ShardsFailed = total, failed
			answer(w, r, &resp.QueryResponse)
			return
		}
		if rejected := rejection(err); rejected != nil {
			server.Reject(w, r, &rejected.APIError)
			return
		}
		failed++
		lastErr = err
		mShardFailures.With(sh.base).Inc()
		logger.Warn("shard failed forwarded query", "shard", sh.base, "err", err)
		if ctx.Err() != nil {
			break
		}
	}
	server.Reject(w, r, &server.APIError{
		Status:  http.StatusServiceUnavailable,
		Code:    "all_shards_failed",
		Message: fmt.Sprintf("no shard answered the forwarded query (last error: %v)", lastErr),
	})
}

// answer records a merged or forwarded answer's outcome on the flight
// record and encodes it.
func answer(w http.ResponseWriter, r *http.Request, resp *server.QueryResponse) {
	server.RequestRecord(r.Context()).Outcome = server.Outcome(resp.Degraded, resp.Partial)
	if resp.Partial {
		mPartialAnswers.Inc()
	}
	server.WriteJSON(w, http.StatusOK, resp)
}

// shardStatus is one row of GET /v1/shards.
type shardStatus struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	Breaker string `json:"breaker"`
	// Epochs maps each mutable dataset to the epoch this shard serves;
	// a divergence across rows means a mutation batch has not converged
	// yet (scatter answers refuse to merge until it does).
	Epochs map[string]uint64 `json:"epochs,omitempty"`
	Stats  client.Stats      `json:"stats"`
}

func (co *Coordinator) handleShards(w http.ResponseWriter, r *http.Request) {
	out, _ := fanout(co.shards, func(_ int, sh *shardConn) (shardStatus, error) {
		ctx, cancel := context.WithTimeout(r.Context(), 2*time.Second)
		defer cancel()
		return shardStatus{
			URL:     sh.base,
			Healthy: sh.c.Health(ctx) == nil,
			Breaker: breakerName(sh.c.BreakerState()),
			Epochs:  co.shardEpochs(ctx, sh),
			Stats:   sh.c.Stats(),
		}, nil
	})
	server.WriteJSON(w, http.StatusOK, map[string]any{"shards": out})
}

func breakerName(state int) string {
	switch state {
	case client.StateOpen:
		return "open"
	case client.StateHalfOpen:
		return "half_open"
	default:
		return "closed"
	}
}

// handleDatasets forwards GET /v1/datasets from the first answering
// shard (the fleet serves identical datasets by contract).
func (co *Coordinator) handleDatasets(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), 10*time.Second)
	defer cancel()
	var lastErr error
	for _, sh := range co.shards {
		body, err := co.call(ctx, sh, http.MethodGet, "/v1/datasets")
		if err != nil {
			lastErr = err
			continue
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(body)
		return
	}
	server.Reject(w, r, &server.APIError{
		Status:  http.StatusServiceUnavailable,
		Code:    "all_shards_failed",
		Message: fmt.Sprintf("no shard answered /v1/datasets (last error: %v)", lastErr),
	})
}

// handleDebugSearch answers GET /debug/search with the fleet-wide
// in-flight search table: every shard's /debug/search rows, each tagged
// with the shard base URL it came from. A shard that fails to answer
// contributes an error row instead of hiding its searches silently.
func (co *Coordinator) handleDebugSearch(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), 5*time.Second)
	defer cancel()
	tables, errs := fanout(co.shards, func(_ int, sh *shardConn) ([]map[string]any, error) {
		body, err := co.call(ctx, sh, http.MethodGet, "/debug/search")
		if err != nil {
			return nil, err
		}
		var wire struct {
			Searches []map[string]any `json:"searches"`
		}
		if err := json.Unmarshal(body, &wire); err != nil {
			return nil, fmt.Errorf("malformed shard table: %w", err)
		}
		return wire.Searches, nil
	})

	searches := make([]map[string]any, 0)
	var shardErrs []map[string]any
	for i, rows := range tables {
		if errs[i] != nil {
			shardErrs = append(shardErrs, map[string]any{
				"shard": co.shards[i].base, "error": errs[i].Error(),
			})
			continue
		}
		for _, row := range rows {
			row["shard"] = co.shards[i].base
			searches = append(searches, row)
		}
	}
	out := map[string]any{"searches": searches}
	if shardErrs != nil {
		out["shard_errors"] = shardErrs
	}
	server.WriteJSON(w, http.StatusOK, out)
}

// handleInvalidate fans the cache invalidation out to every shard.
func (co *Coordinator) handleInvalidate(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), 10*time.Second)
	defer cancel()
	_, errs := fanout(co.shards, func(_ int, sh *shardConn) ([]byte, error) {
		return co.call(ctx, sh, http.MethodPost, "/v1/cache/invalidate")
	})
	okCount := 0
	for _, err := range errs {
		if err == nil {
			okCount++
		}
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{
		"shards_total": len(co.shards),
		"shards_ok":    okCount,
	})
}
