// Package live makes graph mutation safe under serving traffic.
//
// A Manager wraps one dataset's graph + distance index behind an
// atomically swapped, epoch-numbered View. Readers load the current View
// with a single atomic pointer read and then query it for as long as
// they like: a View is immutable once published, so an in-flight search
// always sees one consistent epoch and never takes a lock. Writers
// serialize among themselves, clone the current replica (copy-on-write —
// the NLRNL clone shares unrebuilt per-vertex lists with its parent),
// apply an edge batch to the private copy using the paper's §V-B
// incremental maintenance, and publish the result as epoch e+1. Old
// views stay valid until their last reader drops them, so readers never
// block on writers and writers never wait for readers.
//
// Epochs start at 1 and increase by exactly 1 per batch that changes the
// graph; a batch of duplicate inserts / missing deletes applies nothing
// and does not bump the epoch.
package live

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ktg/internal/graph"
)

// EdgeOp is one edge insertion or deletion.
type EdgeOp struct {
	Insert bool
	U, V   graph.Vertex
}

func (op EdgeOp) String() string {
	verb := "delete"
	if op.Insert {
		verb = "insert"
	}
	return fmt.Sprintf("%s{%d,%d}", verb, op.U, op.V)
}

// Replica is one writable generation of a dataset's graph + index state.
// Implementations are NOT safe for concurrent use; the Manager guarantees
// a replica is mutated only before it is published and never after.
type Replica interface {
	// Apply applies one edge op, reporting whether it changed the graph
	// and which vertices' distance vectors the change may have touched
	// (computed against pre-mutation distances). A duplicate insert or a
	// missing delete returns (false, nil) and leaves the replica as-is.
	Apply(op EdgeOp) (applied bool, affected []graph.Vertex)
	// Finalize completes a batch: NLRNL rebuilds the vertices its ops
	// marked, once for the whole batch, and NL rebuilds itself.
	Finalize() error
	// Freeze snapshots the replica's topology as an immutable CSR graph.
	Freeze() *graph.Graph
	// Clone deep-copies the replica into the next writer generation.
	Clone() Replica
}

// View is one published epoch: an immutable graph snapshot plus the
// replica that answers distance queries for it. Views are never mutated
// after publication.
type View struct {
	Epoch   uint64
	Graph   *graph.Graph
	Replica Replica
}

// ApplyResult reports what one batch did.
type ApplyResult struct {
	// Epoch is the epoch serving after the batch (unchanged if nothing
	// applied).
	Epoch uint64
	// Swapped reports whether a new view was published.
	Swapped bool
	// Applied and Ignored count ops that changed vs. did not change the
	// graph (duplicate inserts, missing deletes, self-loops).
	Applied, Ignored int
	// Affected is the deduplicated union of vertices whose distance
	// vectors the batch may have changed, in increasing id order. The
	// serving layer scopes result-cache invalidation to these.
	Affected []graph.Vertex
	// ApplyDur covers clone + incremental maintenance + finalize;
	// SwapDur covers the graph freeze + pointer publication.
	ApplyDur, SwapDur time.Duration
}

// DurabilityBarrier gates epoch publication on durable storage: it is
// called with the epoch a batch is about to publish and the ops that
// actually changed the graph (ignored ops are excluded), after the
// batch finalized but before the new view becomes visible. If it
// returns an error the epoch is not published and the batch fails, so
// an acked mutation is always one the barrier accepted — the property
// crash recovery relies on.
type DurabilityBarrier func(epoch uint64, applied []EdgeOp) error

// Manager owns the epoch sequence for one dataset.
type Manager struct {
	mu      sync.Mutex // serializes writers; readers never take it
	cur     atomic.Pointer[View]
	barrier DurabilityBarrier
}

// NewManager publishes the initial replica as epoch 1.
func NewManager(r Replica) *Manager { return NewManagerAt(r, 1) }

// NewManagerAt publishes the initial replica as the given epoch.
// Recovery uses it to resume the pre-crash sequence: the replica is the
// checkpointed (or base) state and epoch its recorded epoch, so replayed
// batches republish exactly the epochs they were acked under.
func NewManagerAt(r Replica, epoch uint64) *Manager {
	if epoch == 0 {
		epoch = 1
	}
	m := &Manager{}
	m.cur.Store(&View{Epoch: epoch, Graph: r.Freeze(), Replica: r})
	return m
}

// SetDurability installs the barrier consulted before every epoch
// publication (nil disables). Install it after recovery replay and
// before serving traffic; it applies to every later Apply.
func (m *Manager) SetDurability(b DurabilityBarrier) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.barrier = b
}

// Current returns the live view. The result is immutable and remains
// valid (self-consistent for its epoch) indefinitely.
func (m *Manager) Current() *View {
	return m.cur.Load()
}

// Epoch returns the current epoch.
func (m *Manager) Epoch() uint64 { return m.cur.Load().Epoch }

// Apply applies a batch of edge ops copy-on-write and, if any op changed
// the graph, publishes the result as the next epoch. Concurrent callers
// serialize; each batch lands in (at most) one epoch.
func (m *Manager) Apply(ops []EdgeOp) (*ApplyResult, error) {
	m.mu.Lock()
	defer m.mu.Unlock()

	cur := m.cur.Load()
	start := time.Now()
	w := cur.Replica.Clone()
	res := &ApplyResult{Epoch: cur.Epoch}
	seen := make(map[graph.Vertex]struct{})
	var effective []EdgeOp // ops that changed the graph, in apply order
	for _, op := range ops {
		applied, affected := w.Apply(op)
		if !applied {
			res.Ignored++
			continue
		}
		res.Applied++
		effective = append(effective, op)
		for _, v := range affected {
			seen[v] = struct{}{}
		}
	}
	if res.Applied == 0 {
		// Nothing changed: the clone is identical to the current view;
		// drop it and keep serving the current epoch.
		res.ApplyDur = time.Since(start)
		return res, nil
	}
	if err := w.Finalize(); err != nil {
		return nil, fmt.Errorf("live: finalize batch: %w", err)
	}
	res.ApplyDur = time.Since(start)

	if m.barrier != nil {
		// Ack ordering: the batch must be durable before the epoch is
		// visible. A refused barrier drops the clone — no epoch is
		// minted, the caller sees an error, and a retry re-applies on
		// the unchanged current view.
		if err := m.barrier(cur.Epoch+1, effective); err != nil {
			return nil, fmt.Errorf("live: durability barrier refused epoch %d: %w", cur.Epoch+1, err)
		}
	}

	swapStart := time.Now()
	next := &View{Epoch: cur.Epoch + 1, Graph: w.Freeze(), Replica: w}
	m.cur.Store(next)
	res.SwapDur = time.Since(swapStart)
	res.Epoch = next.Epoch
	res.Swapped = true
	res.Affected = sortedVertexSet(seen)
	return res, nil
}

func sortedVertexSet(set map[graph.Vertex]struct{}) []graph.Vertex {
	if len(set) == 0 {
		return nil
	}
	out := make([]graph.Vertex, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}
