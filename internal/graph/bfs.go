package graph

// Traverser performs repeated bounded breadth-first searches over a fixed
// number of vertices without re-allocating per run. It uses version
// stamping instead of clearing its visited array, so starting a new
// traversal is O(1).
//
// A Traverser is not safe for concurrent use; create one per goroutine.
type Traverser struct {
	stamp []uint32
	dist  []int32
	cur   uint32
	queue []Vertex
}

// NewTraverser returns a Traverser for graphs with n vertices.
func NewTraverser(n int) *Traverser {
	return &Traverser{
		stamp: make([]uint32, n),
		dist:  make([]int32, n),
		queue: make([]Vertex, 0, 64),
	}
}

// Walk runs a breadth-first search from src, visiting every vertex with
// hop distance in [1, maxHops]. The source itself is not passed to visit.
// If visit returns false the traversal stops early. maxHops < 0 means
// unbounded.
func (t *Traverser) Walk(g Topology, src Vertex, maxHops int, visit func(v Vertex, dist int) bool) {
	if maxHops == 0 {
		return
	}
	t.cur++
	if t.cur == 0 {
		// The stamp counter wrapped: stale stamps would alias the new
		// walk, and unstamped vertices would read as visited. Clear and
		// restart (once every 2^32 walks).
		clear(t.stamp)
		t.cur = 1
	}
	t.stamp[src] = t.cur
	t.dist[src] = 0
	t.queue = append(t.queue[:0], src)
	for head := 0; head < len(t.queue); head++ {
		u := t.queue[head]
		d := t.dist[u]
		if maxHops >= 0 && int(d) >= maxHops {
			continue
		}
		for _, v := range g.Neighbors(u) {
			if t.stamp[v] == t.cur {
				continue
			}
			t.stamp[v] = t.cur
			t.dist[v] = d + 1
			if !visit(v, int(d+1)) {
				return
			}
			t.queue = append(t.queue, v)
		}
	}
}

// Distance returns the hop distance between u and v if it is at most cap,
// or -1 if the distance exceeds cap (including unreachable pairs).
// cap < 0 means unbounded. Distance(u, u, ...) is 0.
func (t *Traverser) Distance(g Topology, u, v Vertex, cap int) int {
	if u == v {
		return 0
	}
	found := -1
	t.Walk(g, u, cap, func(w Vertex, d int) bool {
		if w == v {
			found = d
			return false
		}
		return true
	})
	return found
}

// Within reports whether the hop distance between u and v is at most k.
func (t *Traverser) Within(g Topology, u, v Vertex, k int) bool {
	if u == v {
		return true
	}
	if k <= 0 {
		return false
	}
	return t.Distance(g, u, v, k) >= 0
}

// Eccentricity returns the largest hop distance from src to any reachable
// vertex (0 if src is isolated).
func (t *Traverser) Eccentricity(g Topology, src Vertex) int {
	max := 0
	t.Walk(g, src, -1, func(_ Vertex, d int) bool {
		if d > max {
			max = d
		}
		return true
	})
	return max
}

// AllDistances fills out with hop distances from src (-1 where
// unreachable) and returns it. out must have length g.NumVertices(); pass
// nil to allocate.
func (t *Traverser) AllDistances(g Topology, src Vertex, out []int32) []int32 {
	n := g.NumVertices()
	if out == nil {
		out = make([]int32, n)
	}
	for i := range out {
		out[i] = -1
	}
	out[src] = 0
	t.Walk(g, src, -1, func(v Vertex, d int) bool {
		out[v] = int32(d)
		return true
	})
	return out
}

// Components labels each vertex with a connected-component id in
// [0, count) and returns the labeling and the component count.
func Components(g Topology) (labels []int32, count int) {
	n := g.NumVertices()
	labels = make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	tr := NewTraverser(n)
	for v := 0; v < n; v++ {
		if labels[v] >= 0 {
			continue
		}
		id := int32(count)
		count++
		labels[v] = id
		tr.Walk(g, Vertex(v), -1, func(u Vertex, _ int) bool {
			labels[u] = id
			return true
		})
	}
	return labels, count
}
