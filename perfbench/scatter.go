package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"ktg"
	"ktg/internal/client"
	"ktg/internal/obs"
	"ktg/internal/server"
	"ktg/internal/shard"
)

const (
	scatterDataset = "brightkite"
	scatterShards  = 2
)

// scatterEnv is a coordinator over two server shards, all on loopback
// listeners in this process. The shards share one network and index,
// which is safe for concurrent searches.
type scatterEnv struct {
	nw       *ktg.Network
	idx      *ktg.NLRNLIndex
	build    time.Duration
	index    *timedIndex // the shards' index when traced
	shards   []*service
	coord    *service
	shardTap *tap
	coordTap *tap
}

func (e *scatterEnv) close() {
	if e.coord != nil {
		e.coord.close()
	}
	for _, s := range e.shards {
		s.close()
	}
}

func setupScatter(traced bool) (*scatterEnv, error) {
	e := &scatterEnv{shardTap: &tap{keepBody: true}, coordTap: &tap{}}
	nw, err := ktg.GeneratePreset(brightkite005.preset, brightkite005.scale)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	idx, err := nw.BuildNLRNL()
	if err != nil {
		return nil, err
	}
	e.nw, e.idx, e.build = nw, idx, time.Since(start)
	var index ktg.DistanceIndex = idx
	if traced {
		e.index = &timedIndex{DistanceIndex: idx}
		index = e.index
	}
	var urls []string
	for i := 0; i < scatterShards; i++ {
		srv, err := server.New(server.Config{Logger: obs.NopLogger()},
			&server.Dataset{Name: scatterDataset, Network: nw, Index: index})
		if err != nil {
			e.close()
			return nil, err
		}
		h := srv.Handler()
		if traced {
			h = e.shardTap.wrap(h)
		}
		s, err := serve(h)
		if err != nil {
			e.close()
			return nil, err
		}
		e.shards = append(e.shards, s)
		urls = append(urls, s.url)
	}
	co, err := shard.New(shard.Config{Shards: urls, Logger: obs.NopLogger()})
	if err != nil {
		e.close()
		return nil, err
	}
	h := co.Handler()
	if traced {
		h = e.coordTap.wrap(h)
	}
	if e.coord, err = serve(h); err != nil {
		e.close()
		return nil, err
	}
	for _, u := range append(urls, e.coord.url) {
		if err := ready(benchHTTP, u); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// scatterCall is one query answered through the coordinator, kept
// compact so that the benchmark's own memory stays out of rss_peak_mb.
type scatterCall struct {
	qi     int
	dur    time.Duration
	err    error
	failed bool   // partial or degraded
	answer string // canonical groups
	stats  ktg.SearchStats
}

func newScatterCall(qi int, dur time.Duration, resp *client.Response, err error) scatterCall {
	c := scatterCall{qi: qi, dur: dur, err: err}
	if err == nil {
		c.failed = resp.Partial || resp.Degraded
		c.answer = canonical(fromClient(resp.Groups))
		c.stats = scalarStats(resp.Stats)
	}
	return c
}

// scalarStats drops the per-depth histograms.
func scalarStats(s ktg.SearchStats) ktg.SearchStats {
	s.DepthNodes, s.DepthPruned, s.DepthFiltered = nil, nil, nil
	return s
}

// runScatter drives the served read path: a closed-loop client sends
// Table I queries through the coordinator, which scatters each across the
// two shards' /v1/query/partial and merges the slices.
func runScatter(cfg runConfig) (*outcome, error) {
	env, setupS, err := setupMedian(cfg.setupReps,
		func() (*scatterEnv, error) { return setupScatter(cfg.traced) },
		func(e *scatterEnv) { e.close() })
	if err != nil {
		return nil, err
	}
	defer env.close()
	d, err := brightkite005.profiles()
	if err != nil {
		return nil, err
	}
	pool := sweepQueries(d, cfg.seed)

	before, err := scrapeMetrics(benchHTTP, env.coord.url)
	if err != nil {
		return nil, err
	}
	// One closed-loop caller: a query's two shard searches then have the
	// host's two cores. A second caller queues four searches on them; on a
	// 2-vCPU VM that put the run-to-run spread of every figure near 25%,
	// against 12-15% with one caller.
	cl, err := client.New(client.Config{BaseURL: env.coord.url, HTTPClient: benchHTTP, Seed: cfg.seed})
	if err != nil {
		return nil, err
	}
	var calls []scatterCall
	start := time.Now()
	for i := 0; time.Since(start) < cfg.window; i++ {
		qi := i % len(pool)
		t0 := time.Now()
		resp, err := cl.Query(context.Background(), wireRequest(scatterDataset, pool[qi]))
		calls = append(calls, newScatterCall(qi, time.Since(t0), resp, err))
	}
	rss := rssPeakMiB()
	after, err := scrapeMetrics(benchHTTP, env.coord.url)
	if err != nil {
		return nil, err
	}

	// Checks, outside the timed window: every distinct answer is feasible
	// and byte-identical to an in-process search of the same query.
	o := newOutcome()
	chk := newChecker(env.nw, env.nw)
	refs := map[int]string{}
	refTime := map[int]time.Duration{}
	var (
		lat  = map[int][]float64{}
		core coreAcc
	)
	for _, c := range calls {
		o.attempted++
		if c.err != nil || c.failed {
			o.failed++
			continue
		}
		q := pool[c.qi]
		want, ok := refs[c.qi]
		if !ok {
			res, err := env.nw.Search(q, ktg.SearchOptions{Index: env.idx})
			if err != nil {
				return nil, fmt.Errorf("reference search: %w", err)
			}
			want = canonical(fromResult(res.Groups))
			refs[c.qi], refTime[c.qi] = want, searchTime(res.Stats)
			if err := chk.checkAnswer(q, fromResult(res.Groups)); err != nil {
				o.mismatch("reference answer to %v: %v", q, err)
			}
		}
		if c.answer != want {
			o.mismatch("coordinator answered %v with %s, single node gives %s", q, c.answer, want)
			continue
		}
		lat[c.qi] = append(lat[c.qi], ms(c.dur))
		core.add(c.stats)
	}
	o.finish()

	m := o.metrics
	m["setup_s"] = setupS
	m["rss_peak_mb"] = rss
	putPoolLatency(m, lat)
	o.speed = m["throughput_qps"]
	m["index.bytes"] = float64(env.idx.SpaceBytes())
	m["index.build_s"] = env.build.Seconds()
	if !cfg.traced {
		return o, nil
	}
	core.put(m)
	scatterLayers(m, env, before, after, calls, refTime)
	attempts, callsN, err := clientAttempts(env.coord.url, cl)
	if err != nil {
		return nil, err
	}
	m["client.attempts_per_call"] = ratio(attempts, callsN)
	return o, nil
}

// scatterLayers joins the coordinator's and the shards' timings by trace
// ID. (The coordinator's client mints a fresh X-Request-Id per shard
// call; the W3C trace is what the two sides share.)
func scatterLayers(m map[string]float64, env *scatterEnv, before, after promSample, calls []scatterCall, refTime map[int]time.Duration) {
	type leg struct {
		dur    time.Duration
		search time.Duration
	}
	legs := map[string][]leg{}
	var (
		selfMS       []float64
		shardSearch  time.Duration
		exploreTotal time.Duration
		checks       int64
	)
	for _, x := range env.shardTap.exchanges("/v1/query/partial") {
		var body struct {
			Stats ktg.SearchStats `json:"stats"`
		}
		if x.status != 200 || json.Unmarshal(x.body, &body) != nil {
			continue
		}
		st := searchTime(body.Stats)
		legs[x.traceID] = append(legs[x.traceID], leg{x.dur, st})
		selfMS = append(selfMS, ms(x.dur-st))
		shardSearch += st
		exploreTotal += body.Stats.ExploreTime
		checks += body.Stats.DistanceChecks
	}
	var coordSelf, skew []float64
	for _, x := range env.coordTap.exchanges("/v1/query") {
		ls := legs[x.traceID]
		if x.status != 200 || len(ls) != scatterShards {
			continue
		}
		slow, fast := ls[0].dur, ls[0].dur
		for _, l := range ls[1:] {
			slow, fast = max(slow, l.dur), min(fast, l.dur)
		}
		coordSelf = append(coordSelf, ms(x.dur-slow))
		skew = append(skew, ratio(float64(slow), float64(fast)))
	}
	var single time.Duration
	for _, c := range calls {
		if c.err == nil {
			single += refTime[c.qi]
		}
	}
	m["server.self_ms"] = mean(selfMS)
	m["server.queue_wait_ms"] = histQuantileDelta(before, after, "ktg_server_queue_wait_ns",
		delta(before, after, "ktg_server_partial_requests_total"), 0.99) / 1e6
	m["shard.coord_self_ms"] = mean(coordSelf)
	m["shard.skew_ratio"] = mean(skew)
	m["shard.work_ratio"] = ratio(float64(shardSearch), float64(single))
	m["shard.offers_per_query"] = ratio(delta(before, after, "ktg_coord_merge_offers_total"),
		delta(before, after, "ktg_coord_scatter_total"))
	within := env.index.callNS()
	m["index.within_ns"] = within
	m["index.within_share"] = ratio(within*float64(checks), float64(exploreTotal))
}

// clientAttempts sums HTTP attempts and logical calls over the
// benchmark's client and the coordinator's per-shard clients (from
// GET /v1/shards).
func clientAttempts(coordURL string, own *client.Client) (attempts, calls float64, err error) {
	s := own.Stats()
	attempts, calls = float64(s.Attempts), float64(s.Calls)
	res, err := benchHTTP.Get(coordURL + "/v1/shards")
	if err != nil {
		return 0, 0, fmt.Errorf("reading /v1/shards: %w", err)
	}
	defer res.Body.Close()
	var body struct {
		Shards []struct {
			Stats client.Stats `json:"stats"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(res.Body).Decode(&body); err != nil {
		return 0, 0, fmt.Errorf("decoding /v1/shards: %w", err)
	}
	for _, s := range body.Shards {
		attempts += float64(s.Stats.Attempts)
		calls += float64(s.Stats.Calls)
	}
	return attempts, calls, nil
}

// wireRequest is the HTTP form of a query.
func wireRequest(ds string, q ktg.Query) *client.Request {
	return &client.Request{Dataset: ds, Keywords: q.Keywords, GroupSize: q.GroupSize, Tenuity: q.Tenuity, TopN: q.TopN}
}

// fromClient converts a served answer to the comparison shape.
func fromClient(gs []client.Group) []group {
	out := make([]group, len(gs))
	for i, g := range gs {
		members := make([]uint32, len(g.Members))
		for j, v := range g.Members {
			members[j] = uint32(v)
		}
		out[i] = group{Members: members, Covered: g.Covered, QKC: g.QKC}
	}
	return out
}
