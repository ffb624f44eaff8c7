package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"ktg"
	"ktg/internal/client"
	"ktg/internal/graph"
	"ktg/internal/obs"
	"ktg/internal/server"
	"ktg/internal/workload"
)

const (
	liveDataset = "brightkite"
	// ktgserver's defaults for a durable dataset.
	liveWALSync         = "always"
	liveCheckpointEvery = 64
	// maxInflightReads bounds open-loop reads in flight; a full window
	// stalls the generator, which then shows as lateness.
	maxInflightReads = 64
	// maxGenLate is the generator lateness (p99) past which a run is
	// invalid: its arrival process no longer matches the schedule.
	maxGenLate = 100 * time.Millisecond
)

// liveEnv is one durable mutable dataset behind one server.
type liveEnv struct {
	nw     *ktg.Network
	ln     *ktg.LiveNetwork
	walDir string
	build  time.Duration
	idx    int64 // index bytes at epoch 1
	svc    *service
	tap    *tap
}

func (e *liveEnv) close() {
	if e.svc != nil {
		e.svc.close()
		e.svc = nil
	}
	if e.ln != nil {
		e.ln.Close()
		e.ln = nil
	}
}

func setupLive(dir string, traced bool) (*liveEnv, error) {
	nw, err := ktg.GeneratePreset(brightkite001.preset, brightkite001.scale)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	idx, err := nw.BuildNLRNL()
	if err != nil {
		return nil, err
	}
	e := &liveEnv{nw: nw, build: time.Since(start), idx: idx.SpaceBytes(), tap: &tap{keepBody: true}}
	if e.walDir, err = os.MkdirTemp(dir, "wal-"); err != nil {
		return nil, err
	}
	e.ln, _, err = ktg.NewLiveNetworkDurable(nw, idx, ktg.WALConfig{
		Dir: e.walDir, Sync: liveWALSync, CheckpointEvery: liveCheckpointEvery, Logger: obs.NopLogger(),
	})
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Logger: obs.NopLogger()},
		&server.Dataset{Name: liveDataset, Network: nw, Index: idx, Live: e.ln})
	if err != nil {
		e.close()
		return nil, err
	}
	h := srv.Handler()
	if traced {
		h = e.tap.wrap(h)
	}
	if e.svc, err = serve(h); err != nil {
		e.close()
		return nil, err
	}
	if err := ready(benchHTTP, e.svc.url); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// readResult is one answered open-loop read, kept compact so that the
// benchmark's own memory stays out of rss_peak_mb.
type readResult struct {
	rd     read
	late   time.Duration // dispatch time past due
	lat    time.Duration // completion past due
	err    error
	failed bool // partial or degraded
	epoch  uint64
	cache  string
	answer string // canonical groups
	stats  ktg.SearchStats
}

// ackResult is one answered edge batch.
type ackResult struct {
	b    batch
	lat  time.Duration // ack past due
	resp *client.MutationResponse
	err  error
}

// runLive serves reads beside writes on one durable mutable dataset:
// an open-loop schedule of reads (60% from a hot pool that fits the
// result cache) and edge batches, each timed from its due time; then the
// hot pool is re-run with explain to bypass the cache, and the dataset
// is closed and recovered from its WAL.
func runLive(cfg runConfig) (*outcome, error) {
	env, setupS, err := setupMedian(cfg.setupReps,
		func() (*liveEnv, error) { return setupLive(cfg.scratch, cfg.traced) },
		func(e *liveEnv) { e.close(); os.RemoveAll(e.walDir) })
	if err != nil {
		return nil, err
	}
	defer func() { env.close(); os.RemoveAll(env.walDir) }()
	d, err := brightkite001.profiles()
	if err != nil {
		return nil, err
	}
	sched := newLiveSchedule(d, cfg.seed, cfg.window)

	cl, err := client.New(client.Config{BaseURL: env.svc.url, HTTPClient: benchHTTP, Seed: cfg.seed})
	if err != nil {
		return nil, err
	}
	before, err := scrapeMetrics(benchHTTP, env.svc.url)
	if err != nil {
		return nil, err
	}

	var (
		reads []readResult
		acks  []ackResult
		mu    sync.Mutex
		wg    sync.WaitGroup
	)
	start := time.Now()
	// Caller 1: the edge batches, in order, one at a time (every op is
	// effective only when applied in the mutator's order).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, b := range sched.batches {
			sleepUntil(start.Add(b.due))
			resp, err := cl.MutateEdges(context.Background(), mutationRequest(b))
			acks = append(acks, ackResult{b: b, lat: time.Since(start.Add(b.due)), resp: resp, err: err})
		}
	}()
	// Caller 2: the read generator, which dispatches each read at its due
	// time without waiting for earlier answers.
	sem := make(chan struct{}, maxInflightReads)
	var readers sync.WaitGroup
	for _, rd := range sched.reads {
		due := start.Add(rd.due)
		sleepUntil(due)
		sem <- struct{}{}
		late := time.Since(due)
		readers.Add(1)
		go func(rd read) {
			defer readers.Done()
			resp, err := cl.Query(context.Background(), wireRequest(liveDataset, rd.query))
			r := readResult{rd: rd, late: late, lat: time.Since(due), err: err}
			if err == nil {
				r.failed = resp.Partial || resp.Degraded
				r.epoch, r.cache, r.stats = resp.Epoch, resp.Cache, scalarStats(resp.Stats)
				r.answer = canonical(fromClient(resp.Groups))
			}
			<-sem
			mu.Lock()
			reads = append(reads, r)
			mu.Unlock()
		}(rd)
	}
	readers.Wait()
	wg.Wait()
	window := time.Since(start)
	rss := rssPeakMiB()
	after, err := scrapeMetrics(benchHTTP, env.svc.url)
	if err != nil {
		return nil, err
	}

	o := newOutcome()
	m := o.metrics
	lastEpoch := checkAcks(o, acks)
	lat, late := checkReads(o, env.nw, d.Graph, reads, acks)
	checkHotPool(o, cl, sched.hot)
	replay, err := checkRestart(o, env, lastEpoch, mirrorEdges(d.Graph, acks))
	if err != nil {
		return nil, err
	}
	o.finish()

	m["setup_s"] = setupS
	m["rss_peak_mb"] = rss
	putLatency(m, lat, window)
	var sum float64
	for _, s := range lat {
		sum += s.ms
	}
	if sum > 0 {
		o.speed = float64(len(lat)) / sum
	}
	var mutLat []float64
	for _, a := range acks {
		if a.err == nil {
			mutLat = append(mutLat, ms(a.lat))
		}
	}
	m["mutation_p50_ms"] = quantile(mutLat, 0.50)
	m["mutation_p95_ms"] = quantile(mutLat, 0.95)
	m["bench.gen_late_p99_ms"] = quantile(late, 0.99)
	if g := quantile(late, 0.99); g > ms(maxGenLate) {
		o.invalid = fmt.Sprintf("read generator ran %.1f ms late at p99 (limit %v)", g, maxGenLate)
	}
	m["index.bytes"] = float64(env.idx)
	m["index.build_s"] = env.build.Seconds()
	m["wal.replay_s"] = replay.Seconds()
	if cfg.traced {
		liveLayers(m, env.tap, before, after, acks)
		var core coreAcc
		for _, r := range reads {
			if r.err == nil && r.cache == "miss" {
				core.add(r.stats)
			}
		}
		core.put(m)
		s := cl.Stats()
		m["client.attempts_per_call"] = ratio(float64(s.Attempts), float64(s.Calls))
	}
	return o, nil
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

func mutationRequest(b batch) *client.MutationRequest {
	req := &client.MutationRequest{Dataset: liveDataset}
	for _, op := range b.ops {
		kind := "delete"
		if op.Insert {
			kind = "insert"
		}
		req.Edges = append(req.Edges, client.EdgeOp{Op: kind, U: int64(op.U), V: int64(op.V)})
	}
	return req
}

// checkAcks requires every batch to be acked as effective, publishing
// exactly the next epoch, and returns the highest acked epoch.
func checkAcks(o *outcome, acks []ackResult) uint64 {
	epoch := uint64(1)
	for i, a := range acks {
		o.attempted++
		if a.err != nil {
			o.failed++
			continue
		}
		r := a.resp
		if !r.Swapped || r.Applied != len(a.b.ops) || r.Epoch != epoch+1 {
			o.mismatch("batch %d: epoch %d -> %d, swapped %v, applied %d/%d", i, epoch, r.Epoch, r.Swapped, r.Applied, len(a.b.ops))
		}
		epoch = r.Epoch
	}
	return epoch
}

// checkReads checks every distinct read answer against the exact graph
// of the epoch it reports, rebuilt by replaying the acked batches, and
// returns the latency samples and generator lateness.
func checkReads(o *outcome, nw *ktg.Network, base *graph.Graph, reads []readResult, acks []ackResult) (lat []sample, late []float64) {
	type key struct {
		epoch  uint64
		q      string
		answer string
	}
	byEpoch := map[uint64][]readResult{}
	seen := map[key]bool{}
	for _, r := range reads {
		o.attempted++
		late = append(late, ms(r.late))
		if r.err != nil || r.failed {
			o.failed++
			continue
		}
		lat = append(lat, sample{r.rd.due + r.lat, ms(r.lat)})
		k := key{r.epoch, fmt.Sprint(r.rd.query), r.answer}
		if !seen[k] {
			seen[k] = true
			byEpoch[r.epoch] = append(byEpoch[r.epoch], r)
		}
	}
	mirror := graph.MutableFrom(base)
	chk := newChecker(mirror, nw)
	for epoch := uint64(1); ; epoch++ {
		for _, r := range byEpoch[epoch] {
			var groups []group
			if err := json.Unmarshal([]byte(r.answer), &groups); err != nil {
				o.mismatch("read at epoch %d: %v", epoch, err)
				continue
			}
			if err := chk.checkAnswer(r.rd.query, groups); err != nil {
				o.mismatch("read at epoch %d %v: %v", epoch, r.rd.query, err)
			}
		}
		delete(byEpoch, epoch)
		i := int(epoch) - 1 // batch i published epoch i+2
		if i >= len(acks) || len(byEpoch) == 0 {
			break
		}
		applyOps(mirror, acks[i].b.ops)
	}
	for epoch := range byEpoch {
		o.mismatch("reads report epoch %d, which no acked batch published", epoch)
	}
	return lat, late
}

func applyOps(g *graph.Mutable, ops []workload.MutationOp) {
	for _, op := range ops {
		if op.Insert {
			g.AddEdge(op.U, op.V)
		} else {
			g.RemoveEdge(op.U, op.V)
		}
	}
}

// mirrorEdges is the edge count after every acked batch.
func mirrorEdges(base *graph.Graph, acks []ackResult) int {
	g := graph.MutableFrom(base)
	for _, a := range acks {
		if a.err == nil {
			applyOps(g, a.b.ops)
		}
	}
	return g.NumEdges()
}

// checkHotPool re-runs every hot-pool query with explain, which bypasses
// the result cache, and requires the cached answer to equal it.
func checkHotPool(o *outcome, cl *client.Client, hot []ktg.Query) {
	for _, q := range hot {
		o.attempted++
		cached, err := cl.Query(context.Background(), wireRequest(liveDataset, q))
		if err != nil {
			o.failed++
			continue
		}
		req := wireRequest(liveDataset, q)
		req.Explain = true
		fresh, err := cl.Query(context.Background(), req)
		if err != nil {
			o.failed++
			continue
		}
		if fresh.Cache != "bypass" {
			o.mismatch("explain run of %v answered from the cache (%q)", q, fresh.Cache)
		}
		if a, b := canonical(fromClient(cached.Groups)), canonical(fromClient(fresh.Groups)); a != b {
			o.mismatch("hot query %v: cached %s, explain run %s", q, a, b)
		}
	}
}

// checkRestart closes the dataset, reopens its WAL directory, and
// requires the recovered epoch and edge count to match what was acked.
// It returns the recovery time.
func checkRestart(o *outcome, env *liveEnv, lastEpoch uint64, edges int) (time.Duration, error) {
	env.close()
	idx, err := env.nw.BuildNLRNL()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	ln, _, err := ktg.NewLiveNetworkDurable(env.nw, idx, ktg.WALConfig{
		Dir: env.walDir, Sync: liveWALSync, CheckpointEvery: liveCheckpointEvery, Logger: obs.NopLogger(),
	})
	replay := time.Since(start)
	if err != nil {
		o.mismatch("reopening the WAL: %v", err)
		return replay, nil
	}
	defer ln.Close()
	if got := ln.Epoch(); got != lastEpoch {
		o.mismatch("WAL recovered epoch %d, highest acked epoch is %d", got, lastEpoch)
	}
	if got := ln.View().Network.NumEdges(); got != edges {
		o.mismatch("WAL recovered %d edges, acked batches leave %d", got, edges)
	}
	return replay, nil
}

// liveLayers derives the server, live and wal layers from the handler
// tap and the /metrics diff.
func liveLayers(m map[string]float64, t *tap, before, after promSample, acks []ackResult) {
	var self []float64
	for _, x := range t.exchanges("/v1/query") {
		var body struct {
			Cache string          `json:"cache"`
			Stats ktg.SearchStats `json:"stats"`
		}
		if x.status != 200 || json.Unmarshal(x.body, &body) != nil {
			continue
		}
		d := x.dur
		if body.Cache == "miss" || body.Cache == "bypass" {
			d -= searchTime(body.Stats)
		}
		self = append(self, ms(d))
	}
	var handler []float64
	for _, x := range t.exchanges("/v1/edges") {
		if x.status == 200 {
			handler = append(handler, ms(x.dur))
		}
	}
	batches := float64(len(handler))
	hits := delta(before, after, "ktg_server_cache_hits_total")
	lookups := hits + delta(before, after, "ktg_server_cache_misses_total") + delta(before, after, "ktg_server_cache_shared_total")
	fsyncMS := ratio(delta(before, after, "ktg_wal_fsync_latency_ns_sum"), delta(before, after, "ktg_wal_fsync_latency_ns_count")) / 1e6
	fsyncsPerBatch := ratio(delta(before, after, "ktg_wal_fsyncs_total"), batches)

	m["server.self_ms"] = mean(self)
	m["server.queue_wait_ms"] = histQuantileDelta(before, after, "ktg_server_queue_wait_ns",
		delta(before, after, "ktg_server_query_requests_total")+batches, 0.99) / 1e6
	m["server.cache_hit_ratio"] = ratio(hits, lookups)
	m["server.invalidated_per_batch"] = ratio(delta(before, after, "ktg_mutation_cache_invalidated_total"), batches)
	m["live.apply_ms"] = mean(handler) - fsyncMS*fsyncsPerBatch
	var affected float64
	for _, a := range acks {
		if a.err == nil {
			affected += float64(a.resp.AffectedVertices)
		}
	}
	m["live.affected_per_batch"] = ratio(affected, batches)
	m["wal.fsync_ms"] = fsyncMS
	m["wal.bytes_per_batch"] = ratio(delta(before, after, "ktg_wal_append_bytes_total"), delta(before, after, "ktg_wal_appends_total"))
	m["wal.checkpoints"] = delta(before, after, "ktg_wal_checkpoints_total")
}
