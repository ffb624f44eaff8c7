package index

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"ktg/internal/graph"
)

// levelPass builds per-vertex hop-level lists, graph.MaxSources vertices
// at a time, from one run of the multi-source BFS kernel. The run counts
// each source's vertices per level, so every list is allocated at its
// exact size, and records each level's vertices and source masks; fill
// then copies the lists out of that record. The kernel reports each
// level in ascending id, so the lists come out sorted.
type levelPass struct {
	bfs    *graph.MultiBFS
	counts [][graph.MaxSources]int32 // counts[d-1][i]: kept vertices at distance d from the i-th source
	drop   []uint64                  // drop[d]: sources whose level d is not stored
	lists  [graph.MaxSources][]graph.Vertex
	pos    [graph.MaxSources]int32

	// The record of the last count: level d holds verts[ends[d-2]:ends[d-1]]
	// (from 0 for d = 1), each with the mask of the sources that keep it.
	verts []graph.Vertex
	masks []uint64
	ends  []int
}

// runPasses splits vertices (ascending) into passes of up to
// graph.MaxSources sources and calls pass on each, from
// min(GOMAXPROCS, passes) workers that take passes in turn. Each worker
// has its own levelPass; pass must write only state that belongs to its
// own sources, so the result is the same for any number of workers.
func runPasses(n int, vertices []graph.Vertex, pass func(p *levelPass, srcs []graph.Vertex)) {
	passes := (len(vertices) + graph.MaxSources - 1) / graph.MaxSources
	var next atomic.Int64
	work := func() {
		p := &levelPass{bfs: graph.NewMultiBFS(n)}
		for i := int(next.Add(1) - 1); i < passes; i = int(next.Add(1) - 1) {
			lo := i * graph.MaxSources
			pass(p, vertices[lo:min(lo+graph.MaxSources, len(vertices))])
		}
	}
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), passes) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// count runs the kernel from srcs (ascending, at most graph.MaxSources)
// up to maxHops levels, fills p.counts and records the levels for fill.
// With above set, a vertex counts only for the sources with smaller ids:
// NLRNL stores the pair {a, b} under min(a, b) alone. It clears p.drop.
func (p *levelPass) count(g graph.Topology, srcs []graph.Vertex, maxHops int, above bool) {
	p.counts, p.verts, p.masks, p.ends = p.counts[:0], p.verts[:0], p.masks[:0], p.ends[:0]
	p.bfs.Run(g, srcs, maxHops, func(d int, verts []graph.Vertex, masks []uint64) {
		p.counts = append(p.counts, [graph.MaxSources]int32{})
		row := &p.counts[d-1]
		below := 0 // srcs[:below] have ids below w
		for j, w := range verts {
			m := masks[j]
			if above {
				for below < len(srcs) && srcs[below] < w {
					below++
				}
				if m &= uint64(1)<<below - 1; m == 0 {
					continue
				}
			}
			p.verts = append(p.verts, w)
			p.masks = append(p.masks, m)
			for ; m != 0; m &= m - 1 {
				row[bits.TrailingZeros64(m)]++
			}
		}
		p.ends = append(p.ends, len(p.verts))
	})
	// drop is indexed by level, and NLRNL drops level 1 even when no
	// level was reached.
	p.drop = append(p.drop[:0], make([]uint64, len(p.counts)+2)...)
}

// alloc gives the i-th source one backing array, in level order, for
// the counted levels it keeps, so that fill writes the source's vertices
// sequentially, and hands out each level d's list. Levels that are
// dropped or hold no vertex get no list.
func (p *levelPass) alloc(i int, out func(d int, l []graph.Vertex)) {
	total := 0
	for d, row := range p.counts {
		if p.drop[d+1]&(1<<i) == 0 {
			total += int(row[i])
		}
	}
	buf := make([]graph.Vertex, total)
	p.lists[i], p.pos[i] = buf, 0
	off := 0
	for d, row := range p.counts {
		k := int(row[i])
		if k == 0 || p.drop[d+1]&(1<<i) != 0 {
			continue
		}
		out(d+1, buf[off:off+k:off+k])
		off += k
	}
}

// fill copies every recorded vertex of a level the source keeps into
// the backing arrays alloc handed out.
func (p *levelPass) fill() {
	lo := 0
	for d, hi := range p.ends {
		drop := p.drop[d+1]
		for j := lo; j < hi; j++ {
			w := p.verts[j]
			for m := p.masks[j] &^ drop; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				p.lists[i][p.pos[i]] = w
				p.pos[i]++
			}
		}
		lo = hi
	}
}

// EdgeAffected returns, in ascending id, the vertices whose distance
// vectors inserting (insert) or deleting the edge {u, v} may change,
// judged from g before the change (Section V-B). An insertion affects a
// vertex that reaches exactly one endpoint or whose endpoint distances
// differ by at least 2; a deletion affects the vertices with a shortest
// path through the edge, whose endpoint distances differ by exactly 1.
// Both endpoint searches run as one kernel pass.
func EdgeAffected(g graph.Topology, insert bool, u, v graph.Vertex) []graph.Vertex {
	n := g.NumVertices()
	du, dv := make([]int32, n), make([]int32, n)
	for a := range du {
		du[a], dv[a] = -1, -1
	}
	du[u], dv[v] = 0, 0
	graph.NewMultiBFS(n).Run(g, []graph.Vertex{u, v}, -1, func(d int, verts []graph.Vertex, masks []uint64) {
		for j, w := range verts {
			if masks[j]&1 != 0 {
				du[w] = int32(d)
			}
			if masks[j]&2 != 0 {
				dv[w] = int32(d)
			}
		}
	})
	var out []graph.Vertex
	for a := range du {
		da, db := du[a], dv[a]
		var hit bool
		switch {
		case !insert:
			hit = da >= 0 && (da-db == 1 || db-da == 1)
		case da < 0 && db < 0:
			// Disconnected from both endpoints: no path can use the edge.
		case da < 0 || db < 0:
			// Reaches exactly one endpoint: the edge connects it to the
			// other endpoint's component.
			hit = true
		default:
			hit = da-db >= 2 || db-da >= 2
		}
		if hit {
			out = append(out, graph.Vertex(a))
		}
	}
	return out
}

// ApplyEdge inserts (insert) or deletes the edge {u, v} in g when that
// changes g, and then returns true with the vertices whose distance
// vectors the change may alter, judged by EdgeAffected before it. A
// duplicate insert, a missing delete, a self-loop or an endpoint outside
// g leaves g as it is and returns (false, nil).
func ApplyEdge(g *graph.Mutable, insert bool, u, v graph.Vertex) (bool, []graph.Vertex) {
	n := g.NumVertices()
	if u == v || int(u) >= n || int(v) >= n || g.HasEdge(u, v) == insert {
		return false, nil
	}
	affected := EdgeAffected(g, insert, u, v)
	if insert {
		g.AddEdge(u, v)
	} else {
		g.RemoveEdge(u, v)
	}
	return true, affected
}
