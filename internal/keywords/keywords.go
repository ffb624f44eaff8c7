// Package keywords provides the attribute substrate of the KTG library:
// a string-interning vocabulary, per-vertex keyword sets, and compiled
// query views that turn keyword arithmetic into bitmask arithmetic.
//
// The paper's objective functions (Definitions 5, 6, 8) are all ratios
// with the constant denominator |W_Q|; internally the library works with
// integer covered-keyword counts and only converts to ratios at the API
// boundary, so comparisons are exact.
package keywords

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"ktg/internal/bitset"
	"ktg/internal/graph"
)

// ID identifies an interned keyword within a Vocabulary.
type ID = uint32

// Vocabulary interns keyword strings to dense IDs. The zero value is
// ready to use.
type Vocabulary struct {
	byName map[string]ID
	names  []string
}

// NewVocabulary returns an empty vocabulary.
func NewVocabulary() *Vocabulary {
	return &Vocabulary{byName: make(map[string]ID)}
}

// Intern returns the ID for name, assigning a fresh one on first use.
func (v *Vocabulary) Intern(name string) ID {
	if id, ok := v.byName[name]; ok {
		return id
	}
	id := ID(len(v.names))
	v.byName[name] = id
	v.names = append(v.names, name)
	return id
}

// Lookup returns the ID for name and whether it is known.
func (v *Vocabulary) Lookup(name string) (ID, bool) {
	id, ok := v.byName[name]
	return id, ok
}

// Name returns the string for id. It panics on unknown ids.
func (v *Vocabulary) Name(id ID) string {
	if int(id) >= len(v.names) {
		panic(fmt.Sprintf("keywords: unknown id %d", id))
	}
	return v.names[id]
}

// Size returns the number of interned keywords.
func (v *Vocabulary) Size() int { return len(v.names) }

// Attributes associates each vertex of a graph with a sorted set of
// keyword IDs.
type Attributes struct {
	vocab *Vocabulary
	of    [][]ID

	// post is the inverted file, per keyword id up to the largest stored
	// one, which may exceed the vocabulary. The first Posting call after
	// the sets change builds it; postMu makes concurrent first calls
	// build it once, and later calls read it without locking.
	postMu sync.Mutex
	post   atomic.Pointer[[][]graph.Vertex]
}

// Posting returns the vertices carrying keyword id, in increasing order.
// The slice must not be modified.
func (a *Attributes) Posting(id ID) []graph.Vertex {
	post := a.post.Load()
	if post == nil {
		a.postMu.Lock()
		if post = a.post.Load(); post == nil {
			var table [][]graph.Vertex
			for v, ks := range a.of {
				for _, k := range ks {
					if int(k) >= len(table) {
						table = append(table, make([][]graph.Vertex, int(k)+1-len(table))...)
					}
					table[k] = append(table[k], graph.Vertex(v))
				}
			}
			post = &table
			a.post.Store(post)
		}
		a.postMu.Unlock()
	}
	if int(id) < len(*post) {
		return (*post)[id]
	}
	return nil
}

// NewAttributes returns empty attributes for n vertices over vocab.
// A nil vocab allocates a fresh one.
func NewAttributes(n int, vocab *Vocabulary) *Attributes {
	if vocab == nil {
		vocab = NewVocabulary()
	}
	return &Attributes{vocab: vocab, of: make([][]ID, n)}
}

// Vocabulary returns the vocabulary the attributes intern into.
func (a *Attributes) Vocabulary() *Vocabulary { return a.vocab }

// NumVertices returns the number of vertices covered.
func (a *Attributes) NumVertices() int { return len(a.of) }

// Assign replaces vertex v's keyword set with the given names, interning
// as needed. Duplicates are collapsed.
func (a *Attributes) Assign(v graph.Vertex, names ...string) {
	ids := make([]ID, 0, len(names))
	for _, n := range names {
		ids = append(ids, a.vocab.Intern(n))
	}
	a.AssignIDs(v, ids...)
}

// AssignIDs replaces vertex v's keyword set with the given IDs.
// Duplicates are collapsed; the stored set is sorted.
func (a *Attributes) AssignIDs(v graph.Vertex, ids ...ID) {
	set := append([]ID(nil), ids...)
	slices.Sort(set)
	a.of[v] = slices.Compact(set)
	a.post.Store(nil)
}

// Keywords returns vertex v's sorted keyword IDs. The slice must not be
// modified.
func (a *Attributes) Keywords(v graph.Vertex) []ID { return a.of[v] }

// KeywordNames returns vertex v's keywords as strings.
func (a *Attributes) KeywordNames(v graph.Vertex) []string {
	ids := a.of[v]
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = a.vocab.Name(id)
	}
	return out
}

// Has reports whether vertex v carries keyword id.
func (a *Attributes) Has(v graph.Vertex, id ID) bool {
	_, ok := slices.BinarySearch(a.of[v], id)
	return ok
}

// AverageKeywordsPerVertex returns the mean keyword-set size.
func (a *Attributes) AverageKeywordsPerVertex() float64 {
	if len(a.of) == 0 {
		return 0
	}
	total := 0
	for _, ks := range a.of {
		total += len(ks)
	}
	return float64(total) / float64(len(a.of))
}

// Query is a compiled view of a query keyword set W_Q against a fixed
// Attributes instance: S_R, the vertices covering at least one query
// keyword, in increasing id order, each with the bitmask of the query
// keywords it covers, which makes QKC/VKC computations single popcounts.
type Query struct {
	ids   []ID           // sorted, deduplicated W_Q
	sr    []graph.Vertex // S_R, ascending
	masks []uint64       // per member, the (width+63)/64 words of its mask
}

// CompileQuery builds S_R and its members' masks from the postings of
// the query keyword IDs, in time linear in their lengths and |S_R| plus
// passes over an n-bit vertex bitmap. Unknown IDs are permitted (they
// cover nothing). An empty query is rejected: QKC would divide by zero.
func CompileQuery(a *Attributes, queryIDs []ID) (*Query, error) {
	ids := append([]ID(nil), queryIDs...)
	slices.Sort(ids)
	ids = slices.Compact(ids)
	if len(ids) == 0 {
		return nil, fmt.Errorf("keywords: empty query keyword set")
	}
	// S_R is the union of the query keywords' postings: mark them in a
	// vertex bitmap, then read the bitmap out in ascending order.
	seen, size := make([]uint64, (a.NumVertices()+63)>>6), 0
	for _, id := range ids {
		for _, v := range a.Posting(id) {
			seen[v>>6] |= 1 << (v & 63)
		}
	}
	for _, word := range seen {
		size += bits.OnesCount64(word)
	}
	sr := make([]graph.Vertex, 0, size)
	for w, word := range seen {
		for ; word != 0; word &= word - 1 {
			sr = append(sr, graph.Vertex(w<<6|bits.TrailingZeros64(word)))
		}
	}
	// A member's position in S_R is its rank in the bitmap; each posting
	// is ascending, so one walk over the bitmap ranks all its vertices.
	words := (len(ids) + 63) >> 6
	masks := make([]uint64, size*words)
	for i, id := range ids {
		w, rank := 0, 0
		off, bit := i>>6, uint64(1)<<(i&63)
		for _, v := range a.Posting(id) {
			for ; w < int(v>>6); w++ {
				rank += bits.OnesCount64(seen[w])
			}
			pos := rank + bits.OnesCount64(seen[w]&(1<<(v&63)-1))
			masks[pos*words+off] |= bit
		}
	}
	return &Query{ids: ids, sr: sr, masks: masks}, nil
}

// CompileQueryNames is CompileQuery for keyword strings; names missing
// from the vocabulary still occupy a bit of W_Q (they are simply covered
// by no vertex), mirroring the paper where W_Q comes from the document,
// not from the network.
func CompileQueryNames(a *Attributes, names []string) (*Query, error) {
	return CompileQuery(a, QueryIDsForNames(a, names))
}

// QueryIDsForNames maps query keyword strings to IDs for CompileQuery.
// Unknown names receive distinct synthetic out-of-vocabulary ids so each
// still widens W_Q without matching any vertex.
func QueryIDsForNames(a *Attributes, names []string) []ID {
	ids := make([]ID, 0, len(names))
	next := ID(a.vocab.Size())
	seen := map[string]ID{}
	for _, n := range names {
		if id, ok := a.vocab.Lookup(n); ok {
			ids = append(ids, id)
			continue
		}
		id, ok := seen[n]
		if !ok {
			id = next
			next++
			seen[n] = id
		}
		ids = append(ids, id)
	}
	return ids
}

// Width returns |W_Q|.
func (q *Query) Width() int { return len(q.ids) }

// IDs returns the sorted, deduplicated query keyword IDs.
func (q *Query) IDs() []ID { return q.ids }

// Members returns S_R in increasing id order. The slice must not be
// modified; Candidates returns a copy.
func (q *Query) Members() []graph.Vertex { return q.sr }

// Position returns v's index in Members, or -1 when v is not in S_R.
func (q *Query) Position(v graph.Vertex) int {
	if i, ok := slices.BinarySearch(q.sr, v); ok {
		return i
	}
	return -1
}

// MemberMask returns the coverage mask of Members()[i] over W_Q, or an
// empty mask for i = -1. The returned set must not be modified.
func (q *Query) MemberMask(i int) bitset.Set {
	if i < 0 {
		return bitset.New(len(q.ids))
	}
	words := (len(q.ids) + 63) >> 6
	return bitset.View(q.masks[i*words:(i+1)*words:(i+1)*words], len(q.ids))
}

// Mask returns the coverage mask of vertex v over W_Q. The returned set
// must not be modified.
func (q *Query) Mask(v graph.Vertex) bitset.Set { return q.MemberMask(q.Position(v)) }

// Covers reports whether vertex v covers at least one query keyword —
// the qualification test of Definition 7 (0 < QKC(v)).
func (q *Query) Covers(v graph.Vertex) bool { return q.Position(v) >= 0 }

// CoverageCount returns |k_v ∩ W_Q| for vertex v.
func (q *Query) CoverageCount(v graph.Vertex) int { return q.Mask(v).Count() }

// QKC returns the query keyword coverage of vertex v (Definition 5).
func (q *Query) QKC(v graph.Vertex) float64 {
	return float64(q.CoverageCount(v)) / float64(len(q.ids))
}

// GroupMask returns the union coverage mask of a group.
func (q *Query) GroupMask(group []graph.Vertex) bitset.Set {
	m := bitset.New(len(q.ids))
	for _, v := range group {
		m.UnionWith(q.Mask(v))
	}
	return m
}

// GroupCoverageCount returns |⋃_{v∈g}(k_v ∩ W_Q)|.
func (q *Query) GroupCoverageCount(group []graph.Vertex) int {
	return q.GroupMask(group).Count()
}

// GroupQKC returns the query keyword coverage of a group (Definition 6).
func (q *Query) GroupQKC(group []graph.Vertex) float64 {
	return float64(q.GroupCoverageCount(group)) / float64(len(q.ids))
}

// VKCCount returns the valid keyword coverage count of v with respect to
// an already-covered mask (Definition 8, scaled by |W_Q|).
func (q *Query) VKCCount(v graph.Vertex, covered bitset.Set) int {
	return q.Mask(v).CountDifference(covered)
}

// Candidates returns a copy of S_R, the vertices covering at least one
// query keyword in increasing id order: the algorithms' initial S_R.
func (q *Query) Candidates() []graph.Vertex { return slices.Clone(q.sr) }
