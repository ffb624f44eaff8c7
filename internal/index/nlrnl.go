package index

import (
	"log/slog"
	"time"

	"ktg/internal/graph"
	"ktg/internal/obs"
)

// NLRNL is the (c-1)-hop neighbors list + reverse c-hop neighbors list
// index of Section V-B. For every vertex a it chooses c as the hop level
// holding the most neighbors, stores the forward levels 1..c-1 and the
// reverse levels c+1..ecc(a), and leaves level c implicit: a vertex found
// in neither list is either at distance exactly c (same component) or
// unreachable (different component). A connected-components labeling
// disambiguates the two.
//
// Space is halved with the paper's id-ordering trick: the pair {a, b}
// is stored only under min(a, b), and every lookup routes through the
// smaller id.
//
// NLRNL owns a mutable copy of the graph so that InsertEdge / RemoveEdge
// can maintain the index incrementally (the update scheme sketched in
// Section V-B): an update recomputes lists only for the vertices whose
// distance vector can have changed, identified from the BFS distance
// fields of the edge's endpoints.
//
// Within and Distance only read the built lists, so any number of
// goroutines may query one NLRNL concurrently. InsertEdge / RemoveEdge
// mutate the index in place and must not run concurrently with queries
// or each other; live serving therefore never mutates a published NLRNL.
// Instead the epoch layer (internal/live) Clones the current index,
// applies a batch to the private copy, and publishes the copy with an
// atomic pointer swap — readers keep querying the old epoch and never
// block on writers.
type NLRNL struct {
	g    *graph.Mutable
	comp []int32
	c    []int32
	fwd  [][][]graph.Vertex // fwd[a][d-1]: ids > a at distance d (d = 1..c-1)
	rev  [][][]graph.Vertex // rev[a][j]:   ids > a at distance c+1+j
}

// NLRNLOptions configures BuildNLRNLWith.
type NLRNLOptions struct {
	// Logger receives a structured build record (nil = obs default).
	Logger *slog.Logger
}

// BuildNLRNL constructs the NLRNL index from any topology. The index
// keeps its own mutable copy of the graph for dynamic maintenance.
func BuildNLRNL(g graph.Topology) (*NLRNL, error) {
	return BuildNLRNLWith(g, NLRNLOptions{})
}

// BuildNLRNLWith is BuildNLRNL with observability hooks.
func BuildNLRNLWith(g graph.Topology, opts NLRNLOptions) (*NLRNL, error) {
	start := time.Now()
	n := g.NumVertices()
	x := &NLRNL{
		g:   graph.MutableFrom(g),
		c:   make([]int32, n),
		fwd: make([][][]graph.Vertex, n),
		rev: make([][][]graph.Vertex, n),
	}
	x.comp, _ = graph.Components(x.g)
	tr := graph.NewTraverser(n)
	dist := make([]int32, n)
	for a := 0; a < n; a++ {
		x.buildVertex(graph.Vertex(a), tr, dist)
	}
	elapsed := time.Since(start)
	obs.Or(opts.Logger).Debug("ktg: NLRNL index built",
		"vertices", n, "entries", x.Entries(), "dur", elapsed)
	mIndexBuilds.Inc()
	mIndexBuildNanos.Observe(elapsed.Nanoseconds())
	return x, nil
}

// buildVertex recomputes vertex a's c value and lists from a fresh BFS.
func (x *NLRNL) buildVertex(a graph.Vertex, tr *graph.Traverser, dist []int32) {
	n := len(x.c)
	tr.AllDistances(x.g, a, dist)

	// Count stored (id > a) neighbors per level and find the
	// eccentricity over stored ids.
	var counts []int64
	for b := int(a) + 1; b < n; b++ {
		d := dist[b]
		if d <= 0 {
			continue
		}
		for int(d) >= len(counts) {
			counts = append(counts, 0)
		}
		counts[d]++
	}
	// c is the most populated level (smallest wins ties); with no
	// stored neighbors at all, c defaults to 1 and both lists are empty.
	c := 1
	var best int64 = -1
	for d := 1; d < len(counts); d++ {
		if counts[d] > best {
			c, best = d, counts[d]
		}
	}
	x.c[a] = int32(c)

	fwd := make([][]graph.Vertex, c-1)
	var rev [][]graph.Vertex
	for b := int(a) + 1; b < n; b++ {
		d := int(dist[b])
		switch {
		case d <= 0 || d == c:
			// unreachable, self, or the implicit level
		case d < c:
			fwd[d-1] = append(fwd[d-1], graph.Vertex(b))
		default:
			j := d - c - 1
			for j >= len(rev) {
				rev = append(rev, nil)
			}
			rev[j] = append(rev[j], graph.Vertex(b))
		}
	}
	for _, l := range fwd {
		sortVertices(l)
	}
	for _, l := range rev {
		sortVertices(l)
	}
	x.fwd[a] = fwd
	x.rev[a] = rev
}

// Name returns "NLRNL".
func (x *NLRNL) Name() string { return "NLRNL" }

// C returns vertex a's implicit level c.
func (x *NLRNL) C(a graph.Vertex) int { return int(x.c[a]) }

// Within reports whether dist(u, v) <= k using the paper's two-branch
// check: for k < c only the forward lists up to level k are consulted;
// for k >= c only the reverse lists beyond level k can refute the bound.
func (x *NLRNL) Within(u, v graph.Vertex, k int) bool {
	if u == v {
		return k >= 0
	}
	if k <= 0 {
		return false
	}
	a, b := u, v
	if a > b {
		a, b = b, a
	}
	c := int(x.c[a])
	if k < c {
		// Forward levels 1..min(k, c-1) are complete for ids > a, so
		// membership decides the bound exactly.
		fwd := x.fwd[a]
		for d := 0; d < k && d < len(fwd); d++ {
			if containsSorted(fwd[d], b) {
				return true
			}
		}
		return false
	}
	// k >= c: dist(a,b) > k iff b sits in a reverse level beyond k or in
	// another component; anything else (forward level, implicit level c,
	// reverse level <= k) is within k.
	if x.comp[a] != x.comp[b] {
		return false
	}
	rev := x.rev[a]
	for j := range rev {
		if c+1+j <= k {
			continue
		}
		if containsSorted(rev[j], b) {
			return false
		}
	}
	return true
}

// Distance returns the exact hop distance between u and v, or -1 if they
// are disconnected. The NLRNL lists encode the full distance vector, so
// this needs no traversal.
func (x *NLRNL) Distance(u, v graph.Vertex) int {
	if u == v {
		return 0
	}
	a, b := u, v
	if a > b {
		a, b = b, a
	}
	if x.comp[a] != x.comp[b] {
		return -1
	}
	for d, l := range x.fwd[a] {
		if containsSorted(l, b) {
			return d + 1
		}
	}
	c := int(x.c[a])
	for j, l := range x.rev[a] {
		if containsSorted(l, b) {
			return c + 1 + j
		}
	}
	return c
}

// SpaceBytes estimates the resident size of the stored lists, the
// quantity plotted in Figure 9(a).
func (x *NLRNL) SpaceBytes() int64 {
	const (
		entryBytes  = 4
		sliceHeader = 24
	)
	total := int64(len(x.c)) * (4 + 4) // c values + component labels
	for a := range x.fwd {
		total += 2 * sliceHeader
		for _, l := range x.fwd[a] {
			total += sliceHeader + int64(len(l))*entryBytes
		}
		for _, l := range x.rev[a] {
			total += sliceHeader + int64(len(l))*entryBytes
		}
	}
	return total
}

// Entries returns the total number of stored (vertex, neighbor) pairs.
func (x *NLRNL) Entries() int64 {
	var total int64
	for a := range x.fwd {
		for _, l := range x.fwd[a] {
			total += int64(len(l))
		}
		for _, l := range x.rev[a] {
			total += int64(len(l))
		}
	}
	return total
}

// InsertEdge adds the undirected edge {u, v} to the indexed graph and
// repairs the index. Only vertices whose distance vector can have changed
// (those with |dist(a,u) - dist(a,v)| >= 2 before the insertion, with
// unreachable treated as infinity) are rebuilt. It reports whether the
// edge was new.
func (x *NLRNL) InsertEdge(u, v graph.Vertex) bool {
	ok, _ := x.InsertEdgeAffected(u, v)
	return ok
}

// InsertEdgeAffected is InsertEdge returning the set of vertices whose
// lists were rebuilt — exactly the vertices whose distance vector may
// have changed, which is what the serving layer needs for result-cache
// invalidation scoped to the mutation. The slice is nil when the edge
// already existed.
func (x *NLRNL) InsertEdgeAffected(u, v graph.Vertex) (bool, []graph.Vertex) {
	if u == v || int(u) >= len(x.c) || int(v) >= len(x.c) || x.g.HasEdge(u, v) {
		return false, nil
	}
	n := len(x.c)
	tr := graph.NewTraverser(n)
	du := tr.AllDistances(x.g, u, nil)
	dv := tr.AllDistances(x.g, v, nil)
	x.g.AddEdge(u, v)

	var affected []graph.Vertex
	dist := make([]int32, n)
	for a := 0; a < n; a++ {
		if insertAffected(du[a], dv[a]) {
			x.buildVertex(graph.Vertex(a), tr, dist)
			affected = append(affected, graph.Vertex(a))
		}
	}
	x.comp, _ = graph.Components(x.g)
	return true, affected
}

// insertAffected reports whether a vertex with pre-insertion distances
// da, db to the new edge's endpoints can see any distance change.
func insertAffected(da, db int32) bool {
	switch {
	case da < 0 && db < 0:
		// Disconnected from both endpoints: no path can use the edge.
		return false
	case da < 0 || db < 0:
		// Reaches exactly one endpoint: the edge connects it to the
		// other endpoint's component.
		return true
	default:
		d := da - db
		return d >= 2 || d <= -2
	}
}

// RemoveEdge deletes the undirected edge {u, v} from the indexed graph
// and repairs the index. Only vertices with some shortest path through
// the edge (|dist(a,u) - dist(a,v)| == 1 before the deletion) are
// rebuilt. It reports whether the edge existed.
func (x *NLRNL) RemoveEdge(u, v graph.Vertex) bool {
	ok, _ := x.RemoveEdgeAffected(u, v)
	return ok
}

// RemoveEdgeAffected is RemoveEdge returning the set of vertices whose
// lists were rebuilt (see InsertEdgeAffected). The slice is nil when the
// edge did not exist.
func (x *NLRNL) RemoveEdgeAffected(u, v graph.Vertex) (bool, []graph.Vertex) {
	if u == v || int(u) >= len(x.c) || int(v) >= len(x.c) || !x.g.HasEdge(u, v) {
		return false, nil
	}
	n := len(x.c)
	tr := graph.NewTraverser(n)
	du := tr.AllDistances(x.g, u, nil)
	dv := tr.AllDistances(x.g, v, nil)
	x.g.RemoveEdge(u, v)

	var affected []graph.Vertex
	dist := make([]int32, n)
	for a := 0; a < n; a++ {
		da, db := du[a], dv[a]
		if da < 0 { // disconnected from the edge entirely
			continue
		}
		if da-db == 1 || db-da == 1 {
			x.buildVertex(graph.Vertex(a), tr, dist)
			affected = append(affected, graph.Vertex(a))
		}
	}
	x.comp, _ = graph.Components(x.g)
	return true, affected
}

// Clone returns a copy of the index that can be mutated independently of
// the original. The underlying graph is deep-copied; the per-vertex
// forward/reverse lists are shared copy-on-write — buildVertex always
// replaces a vertex's lists wholesale and never edits them in place, so
// mutating the clone rebuilds (and thereby unshares) exactly the affected
// vertices while readers of the original keep seeing its old lists.
func (x *NLRNL) Clone() *NLRNL {
	return &NLRNL{
		g:    x.g.Clone(),
		comp: append([]int32(nil), x.comp...),
		c:    append([]int32(nil), x.c...),
		fwd:  append([][][]graph.Vertex(nil), x.fwd...),
		rev:  append([][][]graph.Vertex(nil), x.rev...),
	}
}

// Graph exposes the indexed topology (read-only use).
func (x *NLRNL) Graph() graph.Topology { return x.g }

// FreezeGraph snapshots the indexed topology as an immutable CSR graph.
func (x *NLRNL) FreezeGraph() *graph.Graph { return x.g.Freeze() }
