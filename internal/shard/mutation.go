package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"ktg/internal/client"
	"ktg/internal/obs"
	"ktg/internal/server"
)

// shardMutation is one shard's outcome inside a fanned-out edge batch.
type shardMutation struct {
	URL     string `json:"url"`
	Epoch   uint64 `json:"epoch,omitempty"`
	Applied int    `json:"applied"`
	Ignored int    `json:"ignored"`
	Error   string `json:"error,omitempty"`
}

// MutationResponse is the coordinator's answer to POST /v1/edges: the
// fleet-wide view of one edge batch.
type MutationResponse struct {
	Dataset string `json:"dataset"`
	// Epoch is the highest epoch any shard reported after the batch;
	// EpochSkew flags that shards disagreed (a prior batch landed
	// partially, or out-of-band mutations bypassed the coordinator).
	Epoch       uint64          `json:"epoch"`
	EpochSkew   bool            `json:"epoch_skew,omitempty"`
	ShardsTotal int             `json:"shards_total"`
	ShardsOK    int             `json:"shards_ok"`
	Shards      []shardMutation `json:"shards"`
}

// handleEdges fans one edge batch out to every shard through the
// resilient clients (retries and breakers, never hedging — the client
// refuses to hedge mutations). The batch must land fleet-wide to keep
// shards on the same epoch: a partial landing answers 502
// mutation_incomplete so the caller retries (edge ops are idempotent,
// and shards that already applied the batch re-apply it as all-ignored
// without minting another epoch); until convergence the scatter path's
// shard_epoch_skew refusal keeps cross-epoch merges from serving. Only
// a fleet-wide failure answers 503.
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

	resp := &MutationResponse{
		Dataset:     req.Dataset,
		ShardsTotal: total,
		Shards:      make([]shardMutation, total),
	}
	var firstErr *client.APIError
	var lastErr error
	for i, res := range results {
		row := shardMutation{URL: co.shards[i].base}
		if errs[i] != nil {
			lastErr = errs[i]
			row.Error = errs[i].Error()
			if firstErr == nil {
				var apiErr *client.APIError
				if errors.As(errs[i], &apiErr) {
					firstErr = apiErr
				}
			}
			mShardFailures.With(co.shards[i].base).Inc()
			logger.Warn("shard failed edge batch", "shard", co.shards[i].base, "err", errs[i])
		} else {
			resp.ShardsOK++
			row.Epoch, row.Applied, row.Ignored = res.Epoch, res.Applied, res.Ignored
			if res.Epoch > resp.Epoch {
				if resp.Epoch != 0 {
					resp.EpochSkew = true
				}
				resp.Epoch = res.Epoch
			} else if res.Epoch < resp.Epoch {
				resp.EpochSkew = true
			}
		}
		resp.Shards[i] = row
	}
	span.SetAttr("shards_ok", strconv.Itoa(resp.ShardsOK))

	switch {
	case resp.ShardsOK == 0:
		// Nothing landed anywhere. Structured 4xx rejections (invalid
		// edge, immutable dataset, unknown dataset) are fleet-uniform, so
		// propagate the first one as-is instead of masking it as a 503.
		if firstErr != nil && firstErr.Status < 500 && firstErr.Status != http.StatusTooManyRequests {
			server.Reject(w, r, &firstErr.APIError)
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
