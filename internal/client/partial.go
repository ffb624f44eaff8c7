package client

import (
	"context"

	"ktg"
	"ktg/internal/server"
)

// PartialResponse is a successful POST /v1/query/partial answer: one
// shard's mergeable slice of a scattered search, plus the call record.
// Partial means the slice was cut short (deadline or budget) — any merge
// over it is inexact and must be surfaced as such.
type PartialResponse struct {
	server.PartialResponse
	Call `json:"-"`
}

func (p *PartialResponse) outcomeFlags() (degraded, partial bool) {
	return false, p.Partial
}

// PartialResult is the answer as the merge input for ktg.MergePartials,
// as the coordinator consumes it.
func (p *PartialResponse) PartialResult() *ktg.PartialResult {
	return &ktg.PartialResult{
		Slice:        ktg.CandidateSlice{Index: p.SliceIndex, Count: p.SliceCount},
		FrontierSize: p.FrontierSize,
		QueryWidth:   p.QueryWidth,
		Best:         p.Best,
		Threshold:    p.Threshold,
		Truncated:    p.Partial,
		Offers:       p.Offers,
		Groups:       p.Groups,
		Stats:        p.Stats,
	}
}

// QueryPartial runs one frontier-slice search (POST /v1/query/partial,
// slice selected by req.SliceIndex/req.SliceCount) with the full retry
// pipeline — breaker, backoff, Retry-After, hedging, retry budget.
func (c *Client) QueryPartial(ctx context.Context, req *Request) (*PartialResponse, error) {
	out, err := c.do(ctx, "/v1/query/partial", req, true, func() wireBody { return new(PartialResponse) })
	if err != nil {
		return nil, err
	}
	return out.(*PartialResponse), nil
}
