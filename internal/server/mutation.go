package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"ktg"
	"ktg/internal/obs"
)

// Mutation metrics. ktg_mutation_epoch is a gauge per dataset so a
// scrape shows which epoch each mutable dataset is serving.
var (
	mMutationRequests = obs.Default().Counter(
		"ktg_mutation_requests_total", "POST /v1/edges batches received")
	mMutationApplied = obs.Default().Counter(
		"ktg_mutation_edges_applied_total", "edge ops that changed the graph")
	mMutationIgnored = obs.Default().Counter(
		"ktg_mutation_edges_ignored_total", "edge ops ignored (duplicate inserts, missing deletes, self-loops)")
	mMutationLatency = obs.Default().Histogram(
		"ktg_mutation_latency_ns", "end-to-end POST /v1/edges latency in nanoseconds")
	mMutationInvalidated = obs.Default().Counter(
		"ktg_mutation_cache_invalidated_total", "cached results dropped by mutation-scoped invalidation")
	mMutationFlushes = obs.Default().Counter(
		"ktg_mutation_cache_flushes_total", "mutations whose affected-keyword set was broad enough to flush the dataset's whole cache share")
	mMutationEpoch = obs.Default().GaugeVec(
		"ktg_mutation_epoch", "current serving epoch per mutable dataset",
		"dataset")
)

// maxMutationBatch bounds one POST /v1/edges batch. Each applied op
// costs incremental index maintenance; callers stream larger workloads
// as multiple batches (each batch is one epoch).
const maxMutationBatch = 4096

// mutationFlushDivisor sets the full-flush threshold: when a batch's
// affected keywords cover at least 1/4 of the vocabulary, per-entry
// keyword intersection would doom nearly everything anyway, so the
// dataset's whole cache share is flushed in one sweep instead.
const mutationFlushDivisor = 4

// EdgeOp is one edge mutation on the wire.
type EdgeOp struct {
	// Op is "insert" or "delete".
	Op string `json:"op"`
	U  int64  `json:"u"`
	V  int64  `json:"v"`
}

// MutationRequest is the JSON body of POST /v1/edges.
type MutationRequest struct {
	Dataset string   `json:"dataset"`
	Edges   []EdgeOp `json:"edges"`
	// TimeoutMillis bounds the admission wait. Once the batch starts
	// applying it runs to completion: an epoch is published whole or not
	// at all.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
}

// MutationResponse is the JSON body of a successful POST /v1/edges,
// from a single node or a coordinator.
type MutationResponse struct {
	Dataset string `json:"dataset"`
	// Epoch is the epoch serving after the batch: previous+1 when any op
	// changed the graph, unchanged otherwise.
	Epoch   uint64 `json:"epoch"`
	Swapped bool   `json:"swapped"`
	Applied int    `json:"applied"`
	Ignored int    `json:"ignored"`
	// AffectedVertices counts vertices whose distance vectors the batch
	// may have changed (the §V-B superset).
	AffectedVertices int `json:"affected_vertices"`
	// CacheInvalidated counts cached results dropped because their query
	// keywords intersect the mutation's affected keywords; CacheFlushed
	// reports that the whole dataset share was dropped instead. A
	// coordinator sums CacheInvalidated over its shards and sets
	// CacheFlushed when any shard flushed.
	CacheInvalidated int  `json:"cache_invalidated"`
	CacheFlushed     bool `json:"cache_flushed"`
	// The fleet fields are a coordinator's; a single node sets none.
	// ShardsTotal is the fleet size and ShardsOK the shards that applied
	// the batch; Shards holds each one's outcome. EpochSkew flags shards
	// that ended on different epochs (a prior batch landed partially, or
	// a mutation bypassed the coordinator).
	EpochSkew   bool            `json:"epoch_skew,omitempty"`
	ShardsTotal int             `json:"shards_total,omitempty"`
	ShardsOK    int             `json:"shards_ok,omitempty"`
	Shards      []ShardMutation `json:"shards,omitempty"`
}

// ShardMutation is one shard's outcome inside a coordinator's edge
// batch.
type ShardMutation struct {
	URL     string `json:"url"`
	Epoch   uint64 `json:"epoch,omitempty"`
	Applied int    `json:"applied"`
	Ignored int    `json:"ignored"`
}

// DecodeMutation parses and strictly validates a POST /v1/edges body
// against the dataset-independent limits; vertex-range checks need a
// resolved dataset and happen in handleEdges. The shard coordinator
// reuses it so its mutation surface rejects precisely what a single-node
// server would.
func DecodeMutation(r *http.Request) (*MutationRequest, *APIError) {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	var req MutationRequest
	if err := dec.Decode(&req); err != nil {
		return nil, badRequest("malformed_body", "invalid JSON body: %v", err)
	}
	if dec.More() {
		return nil, badRequest("malformed_body", "request body must contain exactly one JSON object")
	}
	if req.Dataset == "" {
		return nil, badRequest("missing_dataset", "dataset is required")
	}
	if len(req.Edges) == 0 {
		return nil, badRequest("missing_edges", "edges must list at least one edge op")
	}
	if len(req.Edges) > maxMutationBatch {
		return nil, badRequest("too_many_edges", "edges lists %d ops, server limit is %d", len(req.Edges), maxMutationBatch)
	}
	if req.TimeoutMillis < 0 {
		return nil, badRequest("invalid_timeout", "timeout_ms must be non-negative, got %d", req.TimeoutMillis)
	}
	return &req, nil
}

// handleEdges applies one edge-mutation batch to a live dataset. It
// shares the search pipeline's stages — decode, dataset lookup and drain
// check, the deadline clamp, admission (a batch holds a worker slot
// while it applies, WAL fsync included, so mutations and searches share
// one concurrency budget) — then publishes the next epoch and
// invalidates exactly the cached results the batch can have staled.
func (s *Server) handleEdges(w http.ResponseWriter, r *http.Request) {
	mMutationRequests.Inc()
	start := time.Now()
	defer func() { mMutationLatency.Observe(time.Since(start).Nanoseconds()) }()

	req, aerr := DecodeMutation(r)
	if aerr != nil {
		s.writeError(w, r, aerr)
		return
	}
	ds, err := s.lookup(r.Context(), req.Dataset, "")
	if err != nil {
		s.writeError(w, r, err)
		return
	}
	if ds.Live == nil {
		s.writeError(w, r, &APIError{
			Status:  http.StatusConflict,
			Code:    "immutable_dataset",
			Message: fmt.Sprintf("dataset %q is not served in mutable mode", req.Dataset),
		})
		return
	}
	n := ds.Network.NumVertices()
	ops := make([]ktg.EdgeOp, len(req.Edges))
	for i, e := range req.Edges {
		insert := e.Op == "insert"
		if !insert && e.Op != "delete" {
			s.writeError(w, r, badRequest("invalid_edge", "edges[%d].op must be \"insert\" or \"delete\", got %q", i, e.Op))
			return
		}
		if e.U < 0 || e.V < 0 || e.U >= int64(n) || e.V >= int64(n) {
			s.writeError(w, r, badRequest("invalid_edge", "edges[%d] endpoints (%d, %d) out of range [0,%d)", i, e.U, e.V, n))
			return
		}
		if e.U == e.V {
			s.writeError(w, r, badRequest("invalid_edge", "edges[%d] is a self-loop on vertex %d", i, e.U))
			return
		}
		ops[i] = ktg.EdgeOp{Insert: insert, U: ktg.Vertex(e.U), V: ktg.Vertex(e.V)}
	}
	span := obs.SpanFromContext(r.Context())
	span.SetAttr("edge_ops", strconv.Itoa(len(ops)))

	// The deadline bounds the admission wait, never the apply: once a
	// worker slot is held the batch publishes its epoch whole or not at
	// all.
	admitCtx, cancel := context.WithTimeout(r.Context(), Timeout(req.TimeoutMillis, s.cfg.DefaultTimeout, s.cfg.MaxTimeout))
	defer cancel()
	if _, err := s.admit(admitCtx); err != nil {
		s.writeError(w, r, err)
		return
	}
	defer s.adm.release()

	res, err := ds.Live.ApplyEdges(ops)
	if err != nil {
		s.writeError(w, r, fmt.Errorf("mutation failed: %w", err))
		return
	}
	span.AddCompletedChild("mutate.apply", start, res.ApplyDuration,
		obs.Attr{Key: "applied", Value: strconv.Itoa(res.Applied)},
		obs.Attr{Key: "ignored", Value: strconv.Itoa(res.Ignored)},
		obs.Attr{Key: "affected", Value: strconv.Itoa(len(res.AffectedVertices))})
	span.AddCompletedChild("mutate.swap", start.Add(res.ApplyDuration), res.SwapDuration,
		obs.Attr{Key: "epoch", Value: strconv.FormatUint(res.Epoch, 10)})
	span.SetAttr("epoch", strconv.FormatUint(res.Epoch, 10))
	rec := RequestRecord(r.Context())
	rec.Epoch = res.Epoch
	rec.Outcome = obs.OutcomeOK
	mMutationApplied.Add(int64(res.Applied))
	mMutationIgnored.Add(int64(res.Ignored))
	mMutationEpoch.With(ds.Name).Set(int64(res.Epoch))

	resp := &MutationResponse{
		Dataset:          ds.Name,
		Epoch:            res.Epoch,
		Swapped:          res.Swapped,
		Applied:          res.Applied,
		Ignored:          res.Ignored,
		AffectedVertices: len(res.AffectedVertices),
	}
	if res.Swapped {
		vocab := ds.Network.VocabularySize()
		flush := vocab > 0 && len(res.AffectedKeywords)*mutationFlushDivisor >= vocab
		resp.CacheFlushed = flush
		resp.CacheInvalidated = s.cache.applyMutation(ds.Name, res.Epoch, res.AffectedKeywords, flush)
		mMutationInvalidated.Add(int64(resp.CacheInvalidated))
		if flush {
			mMutationFlushes.Inc()
		}
	}
	s.scope.Logger(r.Context()).Info("edge batch applied",
		"dataset", ds.Name, "epoch", res.Epoch, "applied", res.Applied,
		"ignored", res.Ignored, "affected_vertices", len(res.AffectedVertices),
		"cache_invalidated", resp.CacheInvalidated, "cache_flushed", resp.CacheFlushed,
		"apply_dur", res.ApplyDuration, "swap_dur", res.SwapDuration)
	WriteJSON(w, http.StatusOK, resp)
}
