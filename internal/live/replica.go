package live

import (
	"ktg/internal/graph"
	"ktg/internal/index"
)

// NLRNLReplica maintains an NLRNL index incrementally (§V-B): each op
// changes the private clone's graph and marks the vertices it affects,
// and Finalize rebuilds the union of the marked vertices once per batch.
type NLRNLReplica struct {
	X *index.NLRNL
}

var _ Replica = (*NLRNLReplica)(nil)

// NewNLRNLReplica wraps an existing index. The caller must not mutate x
// afterwards; the Manager owns it from here on.
func NewNLRNLReplica(x *index.NLRNL) *NLRNLReplica { return &NLRNLReplica{X: x} }

func (r *NLRNLReplica) Apply(op EdgeOp) (bool, []graph.Vertex) {
	return r.X.ApplyEdge(op.Insert, op.U, op.V)
}

func (r *NLRNLReplica) Finalize() error {
	r.X.Flush()
	return nil
}

func (r *NLRNLReplica) Freeze() *graph.Graph { return r.X.FreezeGraph() }
func (r *NLRNLReplica) Clone() Replica       { return &NLRNLReplica{X: r.X.Clone()} }

// NLReplica serves an NL index over a mutable graph. NL's stored lists
// are immutable after a build, so maintenance is rebuild-based: ops
// mutate the graph (tracking affected vertices with the same §V-B rules
// NLRNL uses) and Finalize reconstructs the index once per batch at the
// h chosen by the original build.
type NLReplica struct {
	G  *graph.Mutable
	NL *index.NL
	h  int

	dirty bool
}

var _ Replica = (*NLReplica)(nil)

// NewNLReplica wraps a built NL index and the topology it was built
// from. The caller must not mutate either afterwards.
func NewNLReplica(g *graph.Mutable, nl *index.NL) *NLReplica {
	return &NLReplica{G: g, NL: nl, h: nl.H()}
}

func (r *NLReplica) Apply(op EdgeOp) (bool, []graph.Vertex) {
	ok, affected := index.ApplyEdge(r.G, op.Insert, op.U, op.V)
	r.dirty = r.dirty || ok
	return ok, affected
}

func (r *NLReplica) Finalize() error {
	if !r.dirty {
		return nil
	}
	nl, err := index.BuildNL(r.G, index.NLOptions{H: r.h})
	if err != nil {
		return err
	}
	r.NL = nl
	r.dirty = false
	return nil
}

func (r *NLReplica) Freeze() *graph.Graph { return r.G.Freeze() }

func (r *NLReplica) Clone() Replica {
	g := r.G.Clone()
	// The NL pointer is shared until Finalize replaces it on the clone;
	// NL is read-only after build, so sharing is safe.
	return &NLReplica{G: g, NL: r.NL, h: r.h}
}

// GraphReplica serves the index-free configuration: ops mutate the graph
// and every search runs its own BFS oracle over the published snapshot.
type GraphReplica struct {
	G *graph.Mutable
}

var _ Replica = (*GraphReplica)(nil)

// NewGraphReplica wraps a mutable graph. The caller must not mutate it
// afterwards.
func NewGraphReplica(g *graph.Mutable) *GraphReplica {
	return &GraphReplica{G: g}
}

func (r *GraphReplica) Apply(op EdgeOp) (bool, []graph.Vertex) {
	return index.ApplyEdge(r.G, op.Insert, op.U, op.V)
}

func (r *GraphReplica) Finalize() error      { return nil }
func (r *GraphReplica) Freeze() *graph.Graph { return r.G.Freeze() }
func (r *GraphReplica) Clone() Replica       { return NewGraphReplica(r.G.Clone()) }
