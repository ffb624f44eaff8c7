package graph

import "math/bits"

// MaxSources is the number of sources one MultiBFS pass advances: one
// bit of a machine word per source.
const MaxSources = 64

// MultiBFS runs breadth-first searches from up to MaxSources vertices in
// one pass (bit-parallel BFS: Akiba et al., SIGMOD 2013; Then et al.,
// PVLDB 8(4), 2014). Every vertex carries a word of seen bits and a word
// of frontier bits, bit i belonging to the i-th source, so one scan of a
// frontier vertex's neighbours advances every search whose frontier
// holds it. Scratch is three words per vertex, reused across passes.
//
// A MultiBFS is not safe for concurrent use; create one per goroutine.
type MultiBFS struct {
	seen, frontier, next []uint64
	verts                []Vertex
	masks                []uint64
}

// NewMultiBFS returns a MultiBFS for graphs with n vertices.
func NewMultiBFS(n int) *MultiBFS {
	return &MultiBFS{
		seen:     make([]uint64, n),
		frontier: make([]uint64, n),
		next:     make([]uint64, n),
	}
}

// Run searches g from every vertex in sources (at most MaxSources) up to
// maxHops levels; maxHops < 0 means until no search reaches a new
// vertex. For each level d >= 1 at which some search reaches a new
// vertex, level receives the vertices first reached at distance d by at
// least one source, in ascending id, and their masks: bit j of masks[i]
// is set iff verts[i] is at distance exactly d from sources[j]. Sources
// are at distance 0 from themselves and are reported only at their
// distance from the other sources. Both slices are reused by the next
// level.
func (b *MultiBFS) Run(g Topology, sources []Vertex, maxHops int, level func(d int, verts []Vertex, masks []uint64)) {
	if len(sources) > MaxSources {
		panic("graph: MultiBFS.Run with more than MaxSources sources")
	}
	clear(b.seen)
	clear(b.frontier)
	for i, s := range sources {
		b.seen[s] |= 1 << i
		b.frontier[s] |= 1 << i
	}
	for d := 1; maxHops < 0 || d <= maxHops; d++ {
		for v, f := range b.frontier {
			if f == 0 {
				continue
			}
			for _, w := range g.Neighbors(Vertex(v)) {
				b.next[w] |= f
			}
		}
		// One ascending scan turns next into the new frontier, so the
		// level comes out sorted and next is left zero for the next
		// level.
		b.verts, b.masks = b.verts[:0], b.masks[:0]
		for w, x := range b.next {
			if x != 0 {
				b.next[w] = 0
				x &^= b.seen[w]
			}
			b.frontier[w] = x
			if x != 0 {
				b.seen[w] |= x
				b.verts = append(b.verts, Vertex(w))
				b.masks = append(b.masks, x)
			}
		}
		if len(b.verts) == 0 {
			return
		}
		level(d, b.verts, b.masks)
	}
}

// HopHistogram estimates the distribution of pairwise hop distances by
// running full BFS from every (n/sampleSize)-th vertex, which is between
// sampleSize and 2·sampleSize−1 sources when n ≥ sampleSize.
// hist[d] counts sampled pairs at distance d; d = 0 is unused. The
// histogram drives index parameter selection (the NL h and NLRNL c values
// peak where the histogram peaks).
func HopHistogram(g Topology, sampleSize int) []int64 {
	n := g.NumVertices()
	if n == 0 || sampleSize <= 0 {
		return nil
	}
	if sampleSize > n {
		sampleSize = n
	}
	step := n / sampleSize
	var sources []Vertex
	for v := 0; v < n; v += step {
		sources = append(sources, Vertex(v))
	}
	b := NewMultiBFS(n)
	hist := make([]int64, 1)
	for len(sources) > 0 {
		pass := sources[:min(MaxSources, len(sources))]
		sources = sources[len(pass):]
		b.Run(g, pass, -1, func(d int, _ []Vertex, masks []uint64) {
			if d == len(hist) {
				hist = append(hist, 0)
			}
			for _, m := range masks {
				hist[d] += int64(bits.OnesCount64(m))
			}
		})
	}
	return hist
}
