package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"ktg/internal/client"
	"ktg/internal/obs"
	"ktg/internal/server"
)

// handleEdges fans one edge batch out to every shard through the
// resilient clients (retries and breakers, never hedging — the client
// refuses to hedge mutations). The batch must land fleet-wide to keep
// shards on the same epoch: a partial landing answers 502
// mutation_incomplete so the caller retries (edge ops are idempotent,
// and shards that already applied the batch re-apply it as all-ignored
// without minting another epoch); until convergence the scatter path's
// shard_epoch_skew refusal keeps cross-epoch merges from serving. Only
// a fleet-wide failure answers 503.
//
// A fleet-wide landing answers a single node's MutationResponse plus
// the fleet fields. Epoch, swapped, applied, ignored and affected
// vertices are one shard's: the one at the highest epoch that applied
// the most ops. When the fleet agrees they are every shard's. A resend
// that catches a lagging shard up is where they differ: that shard
// applies what the others ignore, and its outcome is reported, so the
// answer still says what the batch changed. Cache invalidations are
// summed over the shards.
func (co *Coordinator) handleEdges(w http.ResponseWriter, r *http.Request) {
	mMutationRequests.Inc()
	logger := co.scope.Logger(r.Context())

	req, aerr := server.DecodeMutation(r)
	if !co.accept(w, r, aerr) {
		return
	}

	span := obs.SpanFromContext(r.Context())
	span.SetAttr("dataset", req.Dataset)
	span.SetAttr("edge_ops", strconv.Itoa(len(req.Edges)))

	ctx, cancel := context.WithTimeout(r.Context(), server.Timeout(req.TimeoutMillis, co.cfg.DefaultTimeout, co.cfg.MaxTimeout))
	defer cancel()

	total := len(co.shards)
	results, errs := fanout(co.shards, func(_ int, sh *shardConn) (*client.MutationResponse, error) {
		return sh.c.MutateEdges(ctx, req)
	})

	resp := &server.MutationResponse{
		Dataset:     req.Dataset,
		ShardsTotal: total,
		Shards:      make([]server.ShardMutation, total),
	}
	var (
		lead     *client.MutationResponse
		rejected *client.APIError
		lastErr  error
	)
	for i, res := range results {
		row := server.ShardMutation{URL: co.shards[i].base}
		if errs[i] != nil {
			lastErr = errs[i]
			if rejected == nil {
				rejected = rejection(errs[i])
			}
			mShardFailures.With(co.shards[i].base).Inc()
			logger.Warn("shard failed edge batch", "shard", co.shards[i].base, "err", errs[i])
		} else {
			resp.ShardsOK++
			row.Epoch, row.Applied, row.Ignored = res.Epoch, res.Applied, res.Ignored
			resp.CacheInvalidated += res.CacheInvalidated
			resp.CacheFlushed = resp.CacheFlushed || res.CacheFlushed
			if lead != nil && res.Epoch != lead.Epoch {
				resp.EpochSkew = true
			}
			if lead == nil || res.Epoch > lead.Epoch || (res.Epoch == lead.Epoch && res.Applied > lead.Applied) {
				lead = res
			}
		}
		resp.Shards[i] = row
	}
	if lead != nil {
		resp.Epoch, resp.Swapped = lead.Epoch, lead.Swapped
		resp.Applied, resp.Ignored, resp.AffectedVertices = lead.Applied, lead.Ignored, lead.AffectedVertices
	}
	span.SetAttr("shards_ok", strconv.Itoa(resp.ShardsOK))

	switch {
	case resp.ShardsOK == 0:
		// Nothing landed anywhere. Structured 4xx rejections (invalid
		// edge, immutable dataset, unknown dataset) are fleet-uniform, so
		// propagate one as-is instead of masking it as a 503.
		if rejected != nil {
			server.Reject(w, r, &rejected.APIError)
			return
		}
		server.Reject(w, r, &server.APIError{
			Status:  http.StatusServiceUnavailable,
			Code:    "all_shards_failed",
			Message: fmt.Sprintf("no shard applied the edge batch (last error: %v)", lastErr),
		})
	case resp.ShardsOK < total:
		mMutationIncomplete.Inc()
		span.Event("mutation.incomplete", int64(total-resp.ShardsOK))
		server.Reject(w, r, &server.APIError{
			Status: http.StatusBadGateway,
			Code:   "mutation_incomplete",
			Message: fmt.Sprintf("edge batch landed on %d/%d shards; retry the batch to converge (last error: %v)",
				resp.ShardsOK, total, lastErr),
		})
	default:
		server.WriteJSON(w, http.StatusOK, resp)
	}
}

// shardEpochs fetches one shard's per-dataset epochs from its
// /v1/datasets surface (mutable datasets only; nil when the shard is
// unreachable or serves no mutable dataset).
func (co *Coordinator) shardEpochs(ctx context.Context, sh *shardConn) map[string]uint64 {
	body, err := co.call(ctx, sh, http.MethodGet, "/v1/datasets")
	if err != nil {
		return nil
	}
	var list server.DatasetList
	if err := json.Unmarshal(body, &list); err != nil {
		return nil
	}
	var out map[string]uint64
	for _, d := range list.Datasets {
		if d.Epoch == 0 {
			continue
		}
		if out == nil {
			out = make(map[string]uint64)
		}
		out[d.Name] = d.Epoch
	}
	return out
}
