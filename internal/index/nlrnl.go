package index

import (
	"log/slog"
	"math/bits"
	"slices"
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
// NLRNL owns a mutable copy of the graph so that edge changes can be
// maintained incrementally (the update scheme sketched in Section V-B).
// ApplyEdge changes the graph and marks the vertices whose distance
// vectors the change may alter, identified from the BFS distance fields
// of the edge's endpoints; Flush then rebuilds the union of the marked
// vertices and relabels the components, once for a whole batch of
// changes. InsertEdge and RemoveEdge are one change and its flush.
// Builds and flushes run their 64-source kernel passes on GOMAXPROCS
// workers; the index is the same for any number.
//
// Within and Distance only read the built lists, so any number of
// goroutines may query one NLRNL concurrently. They must not run between
// an ApplyEdge and the Flush that follows it, when the lists of the
// marked vertices are stale. ApplyEdge, Flush, InsertEdge and RemoveEdge
// mutate the index in place and must not run concurrently with queries
// or each other; live serving therefore never mutates a published NLRNL.
// Instead the epoch layer (internal/live) Clones the current index,
// applies and flushes a batch on the private copy, and publishes the
// copy with an atomic pointer swap — readers keep querying the old epoch
// and never block on writers.
type NLRNL struct {
	g    *graph.Mutable
	comp []int32
	c    []int32
	fwd  [][][]graph.Vertex // fwd[a][d-1]: ids > a at distance d (d = 1..c-1)
	rev  [][][]graph.Vertex // rev[a][j]:   ids > a at distance c+1+j

	// marked is a bitset of the vertices ApplyEdge marked since the last
	// Flush; nil when none is.
	marked []uint64
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
	x.rebuild(allVertices(n))
	elapsed := time.Since(start)
	obs.Or(opts.Logger).Debug("ktg: NLRNL index built",
		"vertices", n, "entries", x.Entries(), "dur", elapsed)
	mIndexBuilds.Inc()
	mIndexBuildNanos.Observe(elapsed.Nanoseconds())
	return x, nil
}

// rebuild recomputes the c values and lists of vertices (ascending ids),
// graph.MaxSources of them per kernel pass. Every rebuilt vertex gets
// freshly allocated lists; none is written in place.
func (x *NLRNL) rebuild(vertices []graph.Vertex) {
	runPasses(len(x.c), vertices, func(p *levelPass, srcs []graph.Vertex) {
		p.count(x.g, srcs, -1, true)
		for i, a := range srcs {
			// c is the most populated level (smallest wins ties); with
			// no stored neighbors at all, c defaults to 1 and both lists
			// are empty.
			c, ecc, best := 1, 0, int32(-1)
			for d, row := range p.counts {
				if row[i] > best {
					c, best = d+1, row[i]
				}
				if row[i] > 0 {
					ecc = d + 1
				}
			}
			x.c[a] = int32(c)
			p.drop[c] |= 1 << i
			fwd := make([][]graph.Vertex, c-1)
			var rev [][]graph.Vertex
			if ecc > c {
				rev = make([][]graph.Vertex, ecc-c)
			}
			p.alloc(i, func(d int, l []graph.Vertex) {
				if d < c {
					fwd[d-1] = l
				} else {
					rev[d-c-1] = l
				}
			})
			x.fwd[a], x.rev[a] = fwd, rev
		}
		p.fill()
	})
}

// allVertices returns the ids 0..n-1.
func allVertices(n int) []graph.Vertex {
	all := make([]graph.Vertex, n)
	for a := range all {
		all[a] = graph.Vertex(a)
	}
	return all
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

// ApplyEdge inserts (insert) or deletes the undirected edge {u, v} in
// the indexed graph and marks the vertices whose distance vectors the
// change may alter, which it returns (see the package function
// ApplyEdge). It reports whether the graph changed. The marked vertices'
// lists stay stale until Flush.
func (x *NLRNL) ApplyEdge(insert bool, u, v graph.Vertex) (bool, []graph.Vertex) {
	ok, affected := ApplyEdge(x.g, insert, u, v)
	if ok && x.marked == nil {
		x.marked = make([]uint64, (len(x.c)+63)/64)
	}
	for _, a := range affected {
		x.marked[a/64] |= 1 << (a % 64)
	}
	return ok, affected
}

// Flush rebuilds the lists of every vertex marked since the last Flush,
// on the graph as it is now, and relabels the components. Without marks
// it does nothing.
func (x *NLRNL) Flush() {
	if x.marked == nil {
		return
	}
	var vertices []graph.Vertex
	for i, w := range x.marked {
		for ; w != 0; w &= w - 1 {
			vertices = append(vertices, graph.Vertex(i*64+bits.TrailingZeros64(w)))
		}
	}
	x.marked = nil
	x.rebuild(vertices)
	x.comp, _ = graph.Components(x.g)
}

// InsertEdge adds the undirected edge {u, v} to the indexed graph and
// repairs the index: ApplyEdge, then Flush. It reports whether the edge
// was new.
func (x *NLRNL) InsertEdge(u, v graph.Vertex) bool {
	ok, _ := x.ApplyEdge(true, u, v)
	x.Flush()
	return ok
}

// RemoveEdge deletes the undirected edge {u, v} from the indexed graph
// and repairs the index: ApplyEdge, then Flush. It reports whether the
// edge existed.
func (x *NLRNL) RemoveEdge(u, v graph.Vertex) bool {
	ok, _ := x.ApplyEdge(false, u, v)
	x.Flush()
	return ok
}

// Clone returns a copy of the index that can be mutated independently of
// the original. The underlying graph is deep-copied; the per-vertex
// forward/reverse lists are shared copy-on-write — rebuild always
// replaces a vertex's lists wholesale and never edits them in place, so
// mutating the clone rebuilds (and thereby unshares) exactly the affected
// vertices while readers of the original keep seeing its old lists. The
// copy keeps the original's pending marks, so its Flush repairs them.
func (x *NLRNL) Clone() *NLRNL {
	return &NLRNL{
		g:      x.g.Clone(),
		comp:   append([]int32(nil), x.comp...),
		c:      append([]int32(nil), x.c...),
		fwd:    append([][][]graph.Vertex(nil), x.fwd...),
		rev:    append([][][]graph.Vertex(nil), x.rev...),
		marked: slices.Clone(x.marked),
	}
}

// Graph exposes the indexed topology (read-only use).
func (x *NLRNL) Graph() graph.Topology { return x.g }

// FreezeGraph snapshots the indexed topology as an immutable CSR graph.
func (x *NLRNL) FreezeGraph() *graph.Graph { return x.g.Freeze() }
