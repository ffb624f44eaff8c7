package core

// The distance memo caches k-line filtering decisions for one search. A
// row belongs to one expanded candidate v and holds two bitsets over the
// local ids of S_R: known marks the partners whose distance to v has been
// decided, near the decided partners within K of v. Rows are allocated
// only for vertices the search expands, carved from fixed-size chunks so
// that a wide S_R with few expansions pays for one chunk instead of an
// |S_R|² matrix, and never grown in place.
const (
	// memoChunkBytes is the allocation unit of the memo.
	memoChunkBytes = 16 << 10
	// memoBudgetBytes caps the memo of one search. Past it, a row is
	// computed into one scratch row and discarded: every node still asks
	// the oracle at most once per remaining candidate, but a pair may
	// then be asked again at a later node.
	memoBudgetBytes = 8 << 20
)

type memo struct {
	words    int     // words per bitset over S_R
	perChunk int     // rows per chunk
	slot     []int32 // local id -> chunk<<16 | row in chunk, plus 1; 0 = no row kept
	chunks   [][]uint64
	used     int // rows taken from the newest chunk
	budget   int // bytes the chunks may take
	scratch  []uint64
}

func newMemo(n, budget int) memo {
	words := (n + 63) >> 6
	// A row is 16 bytes per word; a chunk holds at least one row and,
	// at 16 KiB, at most 1024.
	perChunk := max(memoChunkBytes/(16*max(words, 1)), 1)
	return memo{words: words, perChunk: perChunk, slot: make([]int32, n), budget: budget}
}

// rowAt returns the kept row with the given slot value: known words, then
// near words.
func (m *memo) rowAt(ref int32) []uint64 {
	ref--
	size := 2 * m.words
	off := int(ref&0xffff) * size
	return m.chunks[ref>>16][off : off+size]
}

// row returns v's row, keeping a new one while the budget allows and
// handing out the cleared scratch row after that; a scratch row is valid
// only until the next call.
func (m *memo) row(v int) []uint64 {
	if ref := m.slot[v]; ref != 0 {
		return m.rowAt(ref)
	}
	if len(m.chunks) == 0 || m.used == m.perChunk {
		chunkWords := m.perChunk * 2 * m.words
		if (len(m.chunks)+1)*chunkWords*8 > m.budget {
			if m.scratch == nil {
				m.scratch = make([]uint64, 2*m.words)
			} else {
				clear(m.scratch)
			}
			return m.scratch
		}
		m.chunks = append(m.chunks, make([]uint64, chunkWords))
		m.used = 0
	}
	m.slot[v] = int32(len(m.chunks)-1)<<16 | int32(m.used) + 1
	m.used++
	return m.rowAt(m.slot[v])
}

// decided reports whether u's kept row has decided the pair (u, v), and
// if so whether the two are within K.
func (m *memo) decided(u, v int) (known, near bool) {
	ref := m.slot[u]
	if ref == 0 {
		return false, false
	}
	row := m.rowAt(ref)
	w, bit := v>>6, uint64(1)<<(v&63)
	return row[w]&bit != 0, row[m.words+w]&bit != 0
}
