package client

import (
	"context"

	"ktg/internal/server"
)

// EdgeOp is one edge mutation on the wire ("insert" or "delete").
type EdgeOp = server.EdgeOp

// MutationRequest is the JSON body of POST /v1/edges.
type MutationRequest = server.MutationRequest

// MutationResponse is a successful POST /v1/edges answer plus the call
// record. Hedged is always false: mutations never hedge.
type MutationResponse struct {
	server.MutationResponse
	Call `json:"-"`
}

func (m *MutationResponse) outcomeFlags() (degraded, partial bool) {
	return false, false
}

// MutateEdges applies one edge-mutation batch (POST /v1/edges) with the
// full retry pipeline except hedging: a hedge's losing leg would still
// apply server-side and publish a spurious extra epoch, so mutation
// calls never race two attempts. Retrying a failed batch is safe — edge
// inserts and deletes are idempotent, and a batch that already landed
// re-applies as all-ignored without swapping a new epoch.
func (c *Client) MutateEdges(ctx context.Context, req *MutationRequest) (*MutationResponse, error) {
	out, err := c.do(ctx, "/v1/edges", req, false, func() wireBody { return new(MutationResponse) })
	if err != nil {
		return nil, err
	}
	return out.(*MutationResponse), nil
}
