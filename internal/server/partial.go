package server

import (
	"net/http"

	"ktg"
)

// PartialResponse is the JSON body of POST /v1/query/partial: one
// shard's mergeable slice of a scattered search. Partial mirrors the
// /v1/query contract (deadline or budget hit); a partial slice makes
// any merge over it inexact, which the coordinator must surface.
type PartialResponse struct {
	Dataset      string `json:"dataset"`
	Algorithm    string `json:"algorithm"`
	SliceIndex   int    `json:"slice_index"`
	SliceCount   int    `json:"slice_count"`
	FrontierSize int    `json:"frontier_size"`
	QueryWidth   int    `json:"query_width"`
	Best         int    `json:"best"`
	Threshold    int    `json:"threshold"`
	// Offers is the slice's merge stream: each group with its
	// (root_pos, seq) position in the deterministic exploration order
	// that the coordinator's merge replays.
	Offers []ktg.PartialOffer `json:"offers"`
	// Groups is the shard-local top-N view (diagnostic; merges replay
	// Offers instead).
	Groups        []ktg.Group     `json:"groups"`
	Partial       bool            `json:"partial,omitempty"`
	PartialReason string          `json:"partial_reason,omitempty"`
	Stats         ktg.SearchStats `json:"stats"`
	// Explain is this slice's structured explain plan, present only when
	// the request set "explain": true. The coordinator merges the
	// per-shard plans into one (ktg.MergeExplains) before answering.
	Explain *ktg.Explain `json:"explain,omitempty"`
	// Epoch is the dataset epoch the slice was computed on (mutable
	// datasets only). The coordinator refuses to merge slices from
	// different epochs — a cross-epoch merge would mix two topologies
	// into an answer true of neither.
	Epoch uint64 `json:"epoch,omitempty"`
}

// handlePartial serves POST /v1/query/partial, the shard-worker side of
// scatter-gather: the /v1/query pipeline (validation, admission control,
// deadlines, tracing, metrics), but executing only the assigned frontier
// slice and answering with its merge stream. Slices never degrade to
// greedy, which would silently break merge exactness; under load the
// endpoint sheds with 429 like any other search.
func (s *Server) handlePartial(w http.ResponseWriter, r *http.Request) {
	mPartialRequests.Inc()
	s.serveSearch(w, r, kindPartial, mPartialLatency)
}

// writePartial encodes a slice's answer: the shared search answer plus
// the slice's merge stream.
func writePartial(w http.ResponseWriter, req *QueryRequest, resp *QueryResponse, pr *ktg.PartialResult) {
	out := &PartialResponse{
		Dataset:       resp.Dataset,
		Algorithm:     resp.Algorithm,
		SliceIndex:    req.SliceIndex,
		SliceCount:    req.SliceCount,
		FrontierSize:  pr.FrontierSize,
		QueryWidth:    pr.QueryWidth,
		Best:          pr.Best,
		Threshold:     pr.Threshold,
		Offers:        append([]ktg.PartialOffer{}, pr.Offers...), // [] when empty, not null
		Groups:        resp.Groups,
		Partial:       resp.Partial,
		PartialReason: resp.PartialReason,
		Stats:         resp.Stats,
		Explain:       resp.Explain,
		Epoch:         resp.Epoch,
	}
	if out.Partial {
		mPartialTruncated.Inc()
	}
	if out.Explain != nil {
		mExplainRequests.Inc()
	}
	mPartialOffers.Add(int64(len(out.Offers)))
	WriteJSON(w, http.StatusOK, out)
}
