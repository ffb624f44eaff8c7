package index

import (
	"math/bits"

	"ktg/internal/graph"
)

// levelPass builds per-vertex hop-level lists, graph.MaxSources vertices
// at a time, from the multi-source BFS kernel. A first kernel run counts
// each source's vertices per level, so every list is allocated at its
// exact size; a second run copies them. The kernel reports each level in
// ascending id, so the lists come out sorted.
type levelPass struct {
	bfs    *graph.MultiBFS
	counts [][graph.MaxSources]int32 // counts[d-1][i]: kept vertices at distance d from the i-th source
	drop   []uint64                  // drop[d]: sources whose level d is not stored
	lists  [graph.MaxSources][]graph.Vertex
	pos    [graph.MaxSources]int32
}

func newLevelPass(n int) *levelPass {
	return &levelPass{bfs: graph.NewMultiBFS(n)}
}

// count runs the kernel from srcs (ascending, at most graph.MaxSources)
// up to maxHops levels and fills p.counts. With above set, a vertex
// counts only for the sources with smaller ids: NLRNL stores the pair
// {a, b} under min(a, b) alone. It clears p.drop.
func (p *levelPass) count(g graph.Topology, srcs []graph.Vertex, maxHops int, above bool) {
	p.counts = p.counts[:0]
	p.scan(g, srcs, maxHops, above, true)
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

// fill reruns the search of the matching count call and copies every
// kept vertex into the backing arrays alloc handed out.
func (p *levelPass) fill(g graph.Topology, srcs []graph.Vertex, maxHops int, above bool) {
	p.scan(g, srcs, maxHops, above, false)
}

func (p *levelPass) scan(g graph.Topology, srcs []graph.Vertex, maxHops int, above, counting bool) {
	p.bfs.Run(g, srcs, maxHops, func(d int, verts []graph.Vertex, masks []uint64) {
		if counting {
			p.counts = append(p.counts, [graph.MaxSources]int32{})
		}
		row := &p.counts[d-1]
		below := 0 // srcs[:below] have ids below w
		for j, w := range verts {
			m := masks[j]
			if above {
				for below < len(srcs) && srcs[below] < w {
					below++
				}
				m &= uint64(1)<<below - 1
			}
			if counting {
				for ; m != 0; m &= m - 1 {
					row[bits.TrailingZeros64(m)]++
				}
				continue
			}
			for m &^= p.drop[d]; m != 0; m &= m - 1 {
				i := bits.TrailingZeros64(m)
				p.lists[i][p.pos[i]] = w
				p.pos[i]++
			}
		}
	})
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
