package main

import (
	"errors"
	"fmt"
	"time"

	"ktg"
)

// paperSafety is paper-exact's per-query deadline. The slowest query
// measured on a 2-vCPU box took under 1 s, so a query that reaches it is
// a failed op, never a latency sample.
const paperSafety = 20 * time.Second

type paperEnv struct {
	nw    *ktg.Network
	idx   *ktg.NLRNLIndex
	build time.Duration
}

func setupPaper() (paperEnv, error) {
	nw, err := ktg.GeneratePreset(brightkite001.preset, brightkite001.scale)
	if err != nil {
		return paperEnv{}, err
	}
	start := time.Now()
	idx, err := nw.BuildNLRNL()
	if err != nil {
		return paperEnv{}, err
	}
	return paperEnv{nw: nw, idx: idx, build: time.Since(start)}, nil
}

// runPaper is the paper's cost model in-process: KTG-VKC-DEG over NLRNL
// with the uncapped Theorem 2 bound, one caller issuing queries back to
// back.
func runPaper(cfg runConfig) (*outcome, error) {
	env, setupS, err := setupMedian(cfg.setupReps, setupPaper, func(paperEnv) {})
	if err != nil {
		return nil, err
	}
	d, err := brightkite001.profiles()
	if err != nil {
		return nil, err
	}
	queries := paperQueries(d, cfg.seed)

	var index ktg.DistanceIndex = env.idx
	traced := &timedIndex{DistanceIndex: env.idx}
	if cfg.traced {
		index = traced
	}
	type answer struct {
		qi  int
		res *ktg.Result
		err error
		dur time.Duration
	}
	var answers []answer
	start := time.Now()
	for i := 0; time.Since(start) < cfg.window; i++ {
		qi := i % len(queries)
		t0 := time.Now()
		res, err := env.nw.Search(queries[qi], ktg.SearchOptions{Index: index, UncappedPruneBound: true, MaxDuration: paperSafety})
		answers = append(answers, answer{qi, res, err, time.Since(t0)})
	}
	rss := rssPeakMiB()

	o := newOutcome()
	chk := newChecker(env.nw, env.nw)
	refs := map[int]string{} // coverage vector of the capped-bound search
	var (
		lat  = map[int][]float64{}
		core coreAcc
	)
	for _, a := range answers {
		o.attempted++
		q := queries[a.qi]
		if errors.Is(a.err, ktg.ErrBudgetExhausted) {
			o.failed++ // hit the safety deadline: a failed op, not a sample
			continue
		}
		if a.err != nil {
			o.mismatch("search %v failed: %v", q, a.err)
			continue
		}
		got := fromResult(a.res.Groups)
		if err := chk.checkAnswer(q, got); err != nil {
			o.mismatch("query %v: %v", q, err)
			continue
		}
		want, ok := refs[a.qi]
		if !ok {
			ref, err := env.nw.Search(q, ktg.SearchOptions{Index: env.idx})
			if err != nil {
				return nil, fmt.Errorf("capped reference search: %w", err)
			}
			want = fmt.Sprint(coverageVector(fromResult(ref.Groups)))
			refs[a.qi] = want
		}
		if g := fmt.Sprint(coverageVector(got)); g != want {
			o.mismatch("query %v: coverage %v, capped-bound search gives %v", q, g, want)
			continue
		}
		lat[a.qi] = append(lat[a.qi], ms(a.dur))
		core.add(a.res.Stats)
	}
	o.finish()

	m := o.metrics
	m["setup_s"] = setupS
	m["rss_peak_mb"] = rss
	putPoolLatency(m, lat)
	o.speed = m["throughput_qps"]
	core.put(m)
	m["index.bytes"] = float64(env.idx.SpaceBytes())
	m["index.build_s"] = env.build.Seconds()
	if cfg.traced {
		within := traced.callNS()
		m["index.within_ns"] = within
		m["index.within_share"] = ratio(within*float64(core.checks), float64(core.explore.Nanoseconds()))
	}
	return o, nil
}
