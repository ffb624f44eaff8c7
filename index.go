package ktg

import "ktg/internal/index"

// DistanceIndex answers bounded social-distance queries: Within reports
// whether the hop distance between u and v is at most k. All indexes
// returned by this package satisfy it.
//
// Concurrency: the built indexes (Network.BuildNL, Network.BuildNLRNL,
// Network.BuildPLL) answer Within from immutable or pooled state, so a
// single instance may be shared by concurrent searches — the query
// server relies on this. Exceptions: NLRNLIndex.InsertEdge/RemoveEdge
// mutate the index in place and must not run concurrently with queries
// (use them only on an index no search is reading), and the index-free
// Network.NewBFSIndex keeps per-instance traversal scratch, so give each
// goroutine its own (or leave SearchOptions.Index nil, which allocates a
// private BFS oracle per search).
//
// To mutate a *served* dataset, wrap network + index in a LiveNetwork
// instead: ApplyEdges applies each batch to a private copy-on-write
// replica and publishes it as the next epoch via an atomic pointer swap
// (the model behind the server's POST /v1/edges), so concurrent searches
// keep reading the epoch they resolved and never block on writers.
type DistanceIndex interface {
	Within(u, v Vertex, k int) bool
	Name() string
}

// NewBFSIndex returns the index-free baseline: every distance check runs
// a breadth-first search bounded at k hops. No build cost, no memory,
// slowest checks.
func (n *Network) NewBFSIndex() DistanceIndex {
	return index.NewBFSOracle(n.g)
}

// NLIndex is the paper's h-hop neighbors list index: fast checks for
// k <= h, breadth-first expansion beyond.
type NLIndex struct {
	nl *index.NL
}

// BuildNL constructs an NL index. h is the number of stored hop levels;
// pass 0 to let the index pick the most populated hop level (the paper's
// rule). The build reports to the network's logger (see SetLogger) and
// to the process-wide metrics.
func (n *Network) BuildNL(h int) (*NLIndex, error) {
	nl, err := index.BuildNL(n.g, index.NLOptions{H: h, Logger: n.logger})
	if err != nil {
		return nil, err
	}
	return &NLIndex{nl: nl}, nil
}

// Within reports whether dist(u, v) <= k.
func (x *NLIndex) Within(u, v Vertex, k int) bool { return x.nl.Within(u, v, k) }

// Name returns "NL".
func (x *NLIndex) Name() string { return x.nl.Name() }

// H returns the number of stored hop levels.
func (x *NLIndex) H() int { return x.nl.H() }

// SpaceBytes estimates the index's resident size.
func (x *NLIndex) SpaceBytes() int64 { return x.nl.SpaceBytes() }

// Entries returns the number of stored (vertex, neighbor) pairs.
func (x *NLIndex) Entries() int64 { return x.nl.Entries() }

// NLRNLIndex is the paper's (c-1)-hop neighbors list + reverse c-hop
// neighbors list index: every distance check is a handful of binary
// searches, at the price of a heavier build. It also supports dynamic
// edge maintenance and exact distance retrieval.
type NLRNLIndex struct {
	x *index.NLRNL
}

// BuildNLRNL constructs an NLRNL index. The build reports to the
// network's logger (see SetLogger) and to the process-wide metrics.
func (n *Network) BuildNLRNL() (*NLRNLIndex, error) {
	x, err := index.BuildNLRNLWith(n.g, index.NLRNLOptions{Logger: n.logger})
	if err != nil {
		return nil, err
	}
	return &NLRNLIndex{x: x}, nil
}

// Within reports whether dist(u, v) <= k.
func (x *NLRNLIndex) Within(u, v Vertex, k int) bool { return x.x.Within(u, v, k) }

// Name returns "NLRNL".
func (x *NLRNLIndex) Name() string { return x.x.Name() }

// Distance returns the exact hop distance between u and v, or -1 when
// disconnected.
func (x *NLRNLIndex) Distance(u, v Vertex) int { return x.x.Distance(u, v) }

// SpaceBytes estimates the index's resident size.
func (x *NLRNLIndex) SpaceBytes() int64 { return x.x.SpaceBytes() }

// Entries returns the number of stored (vertex, neighbor) pairs.
func (x *NLRNLIndex) Entries() int64 { return x.x.Entries() }

// InsertEdge adds the social tie {u, v} to the index's own copy of the
// graph and incrementally repairs the index. The originating Network is
// immutable and unaffected: after updates, the index answers for the
// updated topology. It reports whether the edge was new.
func (x *NLRNLIndex) InsertEdge(u, v Vertex) bool { return x.x.InsertEdge(u, v) }

// RemoveEdge deletes the social tie {u, v} from the index's own copy of
// the graph and incrementally repairs the index. It reports whether the
// edge existed.
func (x *NLRNLIndex) RemoveEdge(u, v Vertex) bool { return x.x.RemoveEdge(u, v) }

// PLLIndex is a pruned-landmark-labeling (2-hop label) distance index —
// the classic scheme the paper's NL/NLRNL design draws on. It answers
// exact distance queries for any k from compact per-vertex labels and is
// much smaller than NLRNL, at the price of slightly slower checks and no
// dynamic maintenance.
type PLLIndex struct {
	x *index.PLL
}

// BuildPLL constructs a pruned landmark labeling for the network.
func (n *Network) BuildPLL() (*PLLIndex, error) {
	x, err := index.BuildPLL(n.g)
	if err != nil {
		return nil, err
	}
	return &PLLIndex{x: x}, nil
}

// Within reports whether dist(u, v) <= k.
func (x *PLLIndex) Within(u, v Vertex, k int) bool { return x.x.Within(u, v, k) }

// Name returns "PLL".
func (x *PLLIndex) Name() string { return x.x.Name() }

// Distance returns the exact hop distance between u and v, or -1 when
// disconnected.
func (x *PLLIndex) Distance(u, v Vertex) int { return x.x.Distance(u, v) }

// SpaceBytes estimates the index's resident size.
func (x *PLLIndex) SpaceBytes() int64 { return x.x.SpaceBytes() }

// Entries returns the number of stored label entries.
func (x *PLLIndex) Entries() int64 { return x.x.Entries() }

// AverageLabelSize returns the mean per-vertex label length.
func (x *PLLIndex) AverageLabelSize() float64 { return x.x.AverageLabelSize() }
