// Package bitset provides a compact fixed-width bit set used throughout
// the KTG library to represent subsets of the query keyword set W_Q.
//
// Query keyword sets are small (the paper sweeps |W_Q| from 4 to 8), so a
// Set is almost always a single machine word; the implementation supports
// arbitrary widths so that callers never need to special-case large
// vocabularies. All operations that combine two sets require the operands
// to have the same width, which is enforced with a panic because mixing
// widths is a programming error, never a data error.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-width bit set. The zero value is an empty set of width 0;
// use New to create a set with capacity for n bits.
type Set struct {
	words []uint64
	n     int // width in bits
}

// New returns an empty Set capable of holding n bits. It panics if n is
// negative.
func New(n int) Set {
	if n < 0 {
		panic("bitset: negative width")
	}
	return Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// FromIndices returns a Set of width n with exactly the given bits set.
// It panics if any index is out of [0, n).
func FromIndices(n int, idx ...int) Set {
	s := New(n)
	for _, i := range idx {
		s.Add(i)
	}
	return s
}

// View returns a Set of width n over words, sharing their storage.
// words must hold exactly the (n+63)/64 words New(n) would allocate.
func View(words []uint64, n int) Set {
	if len(words) != (n+wordBits-1)/wordBits {
		panic("bitset: view words do not match its width")
	}
	return Set{words: words, n: n}
}

// Words returns the set's backing words, bit i in words[i/64]. The slice
// must not be modified.
func (s Set) Words() []uint64 { return s.words }

// Width returns the number of bits the set can hold.
func (s Set) Width() int { return s.n }

// Add sets bit i. It panics if i is out of range.
func (s Set) Add(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Remove clears bit i. It panics if i is out of range.
func (s Set) Remove(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Contains reports whether bit i is set. It panics if i is out of range.
func (s Set) Contains(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

func (s Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

// Count returns the number of set bits (popcount).
func (s Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether at least one bit is set.
func (s Set) Any() bool {
	for _, w := range s.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// None reports whether no bit is set.
func (s Set) None() bool { return !s.Any() }

// Clone returns an independent copy of s.
func (s Set) Clone() Set {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return Set{words: w, n: s.n}
}

// CopyFrom overwrites s with the contents of o. Widths must match.
func (s Set) CopyFrom(o Set) {
	s.mustMatch(o)
	copy(s.words, o.words)
}

// Clear removes all bits from s in place.
func (s Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// UnionWith sets s to s ∪ o in place. Widths must match.
func (s Set) UnionWith(o Set) {
	s.mustMatch(o)
	for i, w := range o.words {
		s.words[i] |= w
	}
}

// IntersectWith sets s to s ∩ o in place. Widths must match.
func (s Set) IntersectWith(o Set) {
	s.mustMatch(o)
	for i, w := range o.words {
		s.words[i] &= w
	}
}

// DifferenceWith sets s to s \ o in place. Widths must match.
func (s Set) DifferenceWith(o Set) {
	s.mustMatch(o)
	for i, w := range o.words {
		s.words[i] &^= w
	}
}

// Union returns a new set s ∪ o. Widths must match.
func (s Set) Union(o Set) Set {
	r := s.Clone()
	r.UnionWith(o)
	return r
}

// Intersect returns a new set s ∩ o. Widths must match.
func (s Set) Intersect(o Set) Set {
	r := s.Clone()
	r.IntersectWith(o)
	return r
}

// Difference returns a new set s \ o. Widths must match.
func (s Set) Difference(o Set) Set {
	r := s.Clone()
	r.DifferenceWith(o)
	return r
}

// CountDifference returns |s \ o| without allocating. Widths must match.
//
// This is the hot operation of the KTG branch-and-bound: the valid keyword
// coverage VKC(v) of a candidate vertex v with respect to an intermediate
// group S_I is CountDifference(mask(v), covered(S_I)).
func (s Set) CountDifference(o Set) int {
	s.mustMatch(o)
	c := 0
	for i, w := range s.words {
		c += bits.OnesCount64(w &^ o.words[i])
	}
	return c
}

// CountUnion returns |s ∪ o| without allocating. Widths must match.
func (s Set) CountUnion(o Set) int {
	s.mustMatch(o)
	c := 0
	for i, w := range s.words {
		c += bits.OnesCount64(w | o.words[i])
	}
	return c
}

// CountIntersect returns |s ∩ o| without allocating. Widths must match.
func (s Set) CountIntersect(o Set) int {
	s.mustMatch(o)
	c := 0
	for i, w := range s.words {
		c += bits.OnesCount64(w & o.words[i])
	}
	return c
}

// Intersects reports whether s ∩ o is non-empty. Widths must match.
func (s Set) Intersects(o Set) bool {
	s.mustMatch(o)
	for i, w := range s.words {
		if w&o.words[i] != 0 {
			return true
		}
	}
	return false
}

// SubsetOf reports whether every bit of s is also set in o. Widths must match.
func (s Set) SubsetOf(o Set) bool {
	s.mustMatch(o)
	for i, w := range s.words {
		if w&^o.words[i] != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and o have the same width and the same bits.
func (s Set) Equal(o Set) bool {
	if s.n != o.n {
		return false
	}
	for i, w := range s.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// Indices returns the set bits in increasing order.
func (s Set) Indices() []int {
	out := make([]int, 0, s.Count())
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*wordBits+b)
			w &= w - 1
		}
	}
	return out
}

// String renders the set as a brace-enclosed index list, e.g. "{0 3 5}".
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, idx := range s.Indices() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", idx)
	}
	b.WriteByte('}')
	return b.String()
}

func (s Set) mustMatch(o Set) {
	if s.n != o.n {
		panic(fmt.Sprintf("bitset: width mismatch %d != %d", s.n, o.n))
	}
}
