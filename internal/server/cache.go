package server

import (
	"container/list"
	"context"
	"sync"
)

// resultCache is an LRU cache of complete query responses with built-in
// deduplication of concurrent identical misses (singleflight). Only
// complete results are stored or shared: a partial result (deadline or
// node budget hit) depends on the budget of the request that produced
// it, so followers waiting on a flight that ends partial go back and
// run their own search instead of inheriting someone else's truncation.
//
// Live-mutation coherence. Each entry remembers the dataset, the query's
// deduplicated keyword set, and the epoch its answer was computed on.
// When a mutation publishes a new epoch, applyMutation drops exactly the
// entries whose keyword set intersects the mutation's affected keywords
// (an answer can only change if some candidate vertex — a vertex
// carrying a query keyword — had its distance vector touched), and
// appends the mutation to a bounded per-dataset log. The log closes the
// store-time race: a search that resolved epoch e before a mutation to
// e+1 landed must not store its (now stale) answer afterwards, so
// storeLocked refuses entries older than any logged intersecting
// mutation — and, conservatively, anything older than the log's horizon.
type resultCache struct {
	mu       sync.Mutex
	capacity int // <= 0 disables storage (dedup still works)
	ll       *list.List
	items    map[string]*list.Element
	flights  map[string]*flight
	// mutations holds, per dataset, the most recent mutationLogCap
	// published mutations in ascending epoch order.
	mutations map[string][]mutationEntry
}

// mutationLogCap bounds the per-dataset mutation log. Epochs are
// consecutive, so the log covers exactly the last mutationLogCap epochs;
// results older than that fail the freshness proof and are not stored.
const mutationLogCap = 64

type cacheEntry struct {
	key     string
	dataset string
	kws     []string // sorted deduplicated query keywords
	epoch   uint64
	val     *QueryResponse
}

// cacheMeta carries the invalidation-relevant identity of a request into
// the cache (the response itself carries the epoch).
type cacheMeta struct {
	dataset string
	kws     []string // sorted deduplicated query keywords
}

// mutationEntry is one published mutation: the epoch it created, whether
// it flushed the whole dataset, and otherwise the affected keyword set.
type mutationEntry struct {
	epoch uint64
	flush bool
	kws   map[string]struct{}
}

// flight is one in-progress search that identical requests can wait on.
type flight struct {
	done      chan struct{}
	val       *QueryResponse
	err       error
	shareable bool // complete result, safe to hand to followers
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{
		capacity:  capacity,
		ll:        list.New(),
		items:     make(map[string]*list.Element),
		flights:   make(map[string]*flight),
		mutations: make(map[string][]mutationEntry),
	}
}

// lookup returns the cached response for key and marks it most recently
// used.
func (c *resultCache) lookup(key string) (*QueryResponse, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// do coalesces concurrent identical misses: one caller (the leader)
// runs fn while the rest wait. Only a shareable result — complete, so
// deterministic and independent of the particular request's budget —
// is stored in the LRU and handed to every waiter: partial and degraded
// answers are request-specific compromises, not the query's true
// answer. After a non-shareable outcome each waiter retries, one of
// them becoming the next leader. The second return value reports
// whether the response came from someone else's flight (or a store that
// landed while we waited) rather than our own search.
func (c *resultCache) do(ctx context.Context, key string, meta cacheMeta, fn func() (*QueryResponse, error)) (*QueryResponse, bool, error) {
	for {
		c.mu.Lock()
		if el, ok := c.items[key]; ok {
			c.ll.MoveToFront(el)
			val := el.Value.(*cacheEntry).val
			c.mu.Unlock()
			return val, true, nil
		}
		if f, ok := c.flights[key]; ok {
			c.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
			if f.shareable {
				return f.val, true, nil
			}
			continue
		}
		f := &flight{done: make(chan struct{})}
		c.flights[key] = f
		c.mu.Unlock()

		f.val, f.err = fn()
		f.shareable = f.err == nil && !f.val.Partial && !f.val.Degraded

		c.mu.Lock()
		delete(c.flights, key)
		if f.shareable {
			c.storeLocked(key, meta, f.val)
		}
		c.mu.Unlock()
		close(f.done)
		return f.val, false, f.err
	}
}

func (c *resultCache) storeLocked(key string, meta cacheMeta, val *QueryResponse) {
	if c.capacity <= 0 {
		return
	}
	if !c.freshLocked(meta.dataset, val.Epoch, meta.kws) {
		// The answer predates a mutation that may have changed it; a
		// fresh search on the current epoch must recompute it.
		return
	}
	if el, ok := c.items[key]; ok {
		e := el.Value.(*cacheEntry)
		e.val, e.epoch = val, val.Epoch
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{
		key:     key,
		dataset: meta.dataset,
		kws:     meta.kws,
		epoch:   val.Epoch,
		val:     val,
	})
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
		mCacheEvictions.Inc()
	}
}

// freshLocked proves an answer computed on the given epoch is still
// current: every later logged mutation must be disjoint from the query's
// keywords. An epoch older than the log's horizon cannot be proven
// fresh and is rejected.
func (c *resultCache) freshLocked(dataset string, epoch uint64, kws []string) bool {
	log := c.mutations[dataset]
	if len(log) == 0 || epoch >= log[len(log)-1].epoch {
		return true
	}
	if epoch+1 < log[0].epoch {
		return false // mutations between epoch and the log start are unknown
	}
	for i := len(log) - 1; i >= 0 && log[i].epoch > epoch; i-- {
		m := log[i]
		if m.flush || intersectsSorted(m.kws, kws) {
			return false
		}
	}
	return true
}

// applyMutation records a published mutation and drops exactly the
// entries it can have staled: same dataset, keyword sets intersecting
// the affected keywords (all dataset entries when flush is set). It
// returns how many entries were dropped. The log append and the sweep
// happen under one lock hold, so no stale entry can slip in between.
func (c *resultCache) applyMutation(dataset string, epoch uint64, affected []string, flush bool) int {
	set := make(map[string]struct{}, len(affected))
	for _, kw := range affected {
		set[kw] = struct{}{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	log := append(c.mutations[dataset], mutationEntry{epoch: epoch, flush: flush, kws: set})
	if len(log) > mutationLogCap {
		log = log[len(log)-mutationLogCap:]
	}
	c.mutations[dataset] = log

	var doomed []*list.Element
	for _, el := range c.items {
		e := el.Value.(*cacheEntry)
		if e.dataset != dataset || e.epoch >= epoch {
			// Different dataset, or computed on this epoch or later (a
			// search can resolve the freshly swapped view before this
			// sweep runs) — current either way.
			continue
		}
		if flush || intersectsSorted(set, e.kws) {
			doomed = append(doomed, el)
		}
	}
	for _, el := range doomed {
		c.ll.Remove(el)
		delete(c.items, el.Value.(*cacheEntry).key)
	}
	mCacheEvictions.Add(int64(len(doomed)))
	return len(doomed)
}

// intersectsSorted reports whether any keyword in kws is in set.
func intersectsSorted(set map[string]struct{}, kws []string) bool {
	for _, kw := range kws {
		if _, ok := set[kw]; ok {
			return true
		}
	}
	return false
}

// invalidate drops every cached entry (in-progress flights are
// unaffected) and returns how many were removed.
func (c *resultCache) invalidate() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.items)
	c.ll.Init()
	c.items = make(map[string]*list.Element)
	mCacheEvictions.Add(int64(n))
	return n
}

// size returns the number of cached entries.
func (c *resultCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}
