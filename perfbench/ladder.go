package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/cache"
	"repro/internal/memsys"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workloads"
)

// The layer ladders time each layer's exported functions by direct
// calls from this process, so a layer's cost is known apart from the
// others. Each rung is the median over ladderReps repetitions.
const (
	ladderReps = 5
	// ladderBodies is how many of the workload's own bodies the serving
	// ladder runs on.
	ladderBodies = 256
	// daemonCacheSize is memmodeld's default scenario cache capacity.
	daemonCacheSize = 4096
)

// timePerOp runs op(0..n-1) ladderReps times, calling before (untimed)
// ahead of each repetition, and returns the median time per op in ns.
func timePerOp(n int, before func(), op func(i int) error) (float64, error) {
	var per []float64
	for r := 0; r < ladderReps; r++ {
		if before != nil {
			before()
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := op(i); err != nil {
				return 0, err
			}
		}
		per = append(per, float64(time.Since(t0))/float64(n))
	}
	return median(per), nil
}

// serveLadder times the request path's rungs on reqs: decode, key,
// cache hit and miss, evaluate, encode, and the whole handler through
// httptest. On the hot workload the handler serves cache hits; on the
// cold one every call solves. The residual is the handler time the rungs
// do not account for.
func serveLadder(ctx context.Context, reqs []request, hot bool) (map[string]float64, error) {
	n := len(reqs)
	ds := make([]decoded, n)
	keys := make([]string, n)
	resps := make([]any, n)
	for i, rq := range reqs {
		var err error
		if ds[i], err = decodeRequest(rq); err != nil {
			return nil, err
		}
		keys[i] = ds[i].key()
		if resps[i], err = ds[i].evaluate(ctx); err != nil {
			return nil, err
		}
	}
	rungs := map[string]float64{}
	var err error
	if rungs["api.decode_us"], err = timePerOp(n, nil, func(i int) error {
		_, err := decodeRequest(reqs[i])
		return err
	}); err != nil {
		return nil, err
	}
	if rungs["model.key_us"], err = timePerOp(n, nil, func(i int) error {
		if ds[i].key() == "" {
			return fmt.Errorf("empty key")
		}
		return nil
	}); err != nil {
		return nil, err
	}
	warm := serve.NewCache(daemonCacheSize)
	for i := range keys {
		if _, _, err := warm.Do(ctx, keys[i], func() (any, error) { return resps[i], nil }); err != nil {
			return nil, err
		}
	}
	if rungs["serve.cache_hit_us"], err = timePerOp(n, nil, func(i int) error {
		_, cached, err := warm.Do(ctx, keys[i], func() (any, error) { return resps[i], nil })
		if err == nil && !cached {
			err = fmt.Errorf("expected a cache hit")
		}
		return err
	}); err != nil {
		return nil, err
	}
	// A cache at capacity, so every new key also evicts.
	full := serve.NewCache(daemonCacheSize)
	for j := 0; j < daemonCacheSize; j++ {
		if _, _, err := full.Do(ctx, fmt.Sprintf("fill-%d", j), func() (any, error) { return resps[0], nil }); err != nil {
			return nil, err
		}
	}
	missKeys := make([]string, 0, n*ladderReps)
	for r := 0; r < ladderReps; r++ {
		for i := range keys {
			missKeys = append(missKeys, fmt.Sprintf("%s/%d/%d", keys[i], r, i))
		}
	}
	next := 0
	if rungs["serve.cache_miss_us"], err = timePerOp(n, nil, func(i int) error {
		k := missKeys[next]
		next++
		_, cached, err := full.Do(ctx, k, func() (any, error) { return resps[i], nil })
		if err == nil && cached {
			err = fmt.Errorf("expected a cache miss")
		}
		return err
	}); err != nil {
		return nil, err
	}
	if rungs["model.evaluate_us"], err = timePerOp(n, nil, func(i int) error {
		_, err := ds[i].evaluate(ctx)
		return err
	}); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if rungs["serve.encode_us"], err = timePerOp(n, nil, func(i int) error {
		buf.Reset()
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		return enc.Encode(resps[i])
	}); err != nil {
		return nil, err
	}
	var h http.Handler
	serveOne := func(i int) error {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, reqs[i].path, bytes.NewReader(reqs[i].body))
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("handler status %d: %s", rec.Code, rec.Body.Bytes())
		}
		return nil
	}
	fresh := func() {
		h = serve.New().Handler()
		if hot {
			for i := range reqs {
				_ = serveOne(i) // a failure here shows up in the timed pass
			}
		}
	}
	if rungs["serve.handler_us"], err = timePerOp(n, fresh, serveOne); err != nil {
		return nil, err
	}
	attributed := rungs["api.decode_us"] + rungs["model.key_us"] + rungs["serve.encode_us"]
	if hot {
		attributed += rungs["serve.cache_hit_us"]
	} else {
		attributed += rungs["serve.cache_miss_us"] + rungs["model.evaluate_us"]
	}
	out := map[string]float64{"serve.unattributed_us": (rungs["serve.handler_us"] - attributed) / 1e3}
	for k, v := range rungs {
		out[k] = v / 1e3
	}
	return out, nil
}

// ladderSimInstr is how many instructions each fit workload simulates
// in the sim rung.
const ladderSimInstr = 1_000_000

// measurementLadder times the measurement stack's rungs: a machine
// Reset+Run of every fit workload, one cache-hierarchy access, one
// memory-system access, and one scaling fit.
func measurementLadder(ctx context.Context, seed uint64) (map[string]float64, error) {
	out := map[string]float64{}
	ws := workloads.All()
	var m *sim.Machine
	perInstr, err := timePerOp(1, nil, func(int) error {
		for _, w := range ws {
			cfg := sim.DefaultConfig()
			cfg.Threads = w.FitThreads()
			var err error
			if m == nil {
				m, err = sim.New(cfg, w.Name(), w)
			} else {
				err = m.Reset(cfg, w.Name(), w)
			}
			if err != nil {
				return err
			}
			if _, err := m.Run(ctx, 0, ladderSimInstr); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("sim rung: %w", err)
	}
	out["sim.ns_per_instr"] = perInstr / float64(len(ws)*ladderSimInstr)

	const accesses = 1 << 20
	mem, err := memsys.NewSimulator(memsys.DefaultConfig())
	if err != nil {
		return nil, err
	}
	h, err := cache.New(cache.DefaultConfig(), mem)
	if err != nil {
		return nil, err
	}
	r := newRNG(seed, streamLadder)
	addrs := make([]uint64, accesses)
	for i := range addrs {
		addrs[i] = r.next() % (1 << 24) * 64
	}
	freq := units.GHzOf(2.5)
	now := units.Duration(0)
	d, err := timePerOp(accesses, nil, func(i int) error {
		now++
		h.Access(now, trace.Ref{Addr: addrs[i]}, freq)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out["cache.access_ns"] = d

	msim, err := memsys.NewSimulator(memsys.DefaultConfig())
	if err != nil {
		return nil, err
	}
	now = 0
	d, err = timePerOp(accesses, nil, func(i int) error {
		now += 3
		msim.Access(now, addrs[i]*4, memsys.Read)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out["memsys.access_ns"] = d

	// Eight scaling points on a known line (the paper's 4 core speeds ×
	// 2 memory grades), with seeded scatter.
	points := make([]model.FitPoint, 8)
	for i := range points {
		mp := units.Cycles(150 + 35*i)
		mpi := 0.004 + 0.002*r.float()
		points[i] = model.FitPoint{
			Label: fmt.Sprint(i),
			CPI:   0.9 + 0.3*mpi*float64(mp) + 0.01*r.float(),
			MPI:   mpi, MP: mp, WBR: 0.5, IOPI: 0, IOSZ: 0,
		}
	}
	const fits = 20000
	d, err = timePerOp(fits, nil, func(int) error {
		_, err := model.FitScaling("ladder", points)
		return err
	})
	if err != nil {
		return nil, err
	}
	out["model.fit_us"] = d / 1e3
	return out, nil
}
