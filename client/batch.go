package client

import (
	"context"
	"sync"

	"repro/api"
)

// EvaluateResult pairs one batch entry's reply with its error; exactly
// one of the two is set.
type EvaluateResult struct {
	Response *api.EvaluateResponse
	Err      error
}

// SweepResult pairs one batch entry's sweep reply with its error.
type SweepResult struct {
	Response *api.SweepResponse
	Err      error
}

// EvaluateBatch pushes the requests through Evaluate with at most
// workers in flight, preserving input order in the results. Each entry
// gets the full retry/budget treatment independently; one bad request
// does not abort the rest. workers < 1 means 4.
func (c *Client) EvaluateBatch(ctx context.Context, reqs []api.EvaluateRequest, workers int) []EvaluateResult {
	out := make([]EvaluateResult, len(reqs))
	c.fanOut(len(reqs), workers, func(i int) {
		resp, err := c.Evaluate(ctx, reqs[i])
		out[i] = EvaluateResult{Response: resp, Err: err}
	})
	return out
}

// SweepBatch runs several sweep grids concurrently — e.g. one latency
// and one bandwidth grid per candidate platform — with at most workers
// in flight, preserving input order.
func (c *Client) SweepBatch(ctx context.Context, reqs []api.SweepRequest, workers int) []SweepResult {
	out := make([]SweepResult, len(reqs))
	c.fanOut(len(reqs), workers, func(i int) {
		resp, err := c.Sweep(ctx, reqs[i])
		out[i] = SweepResult{Response: resp, Err: err}
	})
	return out
}

// LatencyGrid builds one sweep request per workload class over a
// latency grid — the Fig. 8/9 shape — ready for SweepBatch.
func LatencyGrid(classes []api.ParamsSpec, platform api.PlatformSpec, steps int, stepNS float64) []api.SweepRequest {
	reqs := make([]api.SweepRequest, 0, len(classes))
	for _, cl := range classes {
		reqs = append(reqs, api.SweepRequest{
			Classes:  []api.ParamsSpec{cl},
			Platform: platform,
			Axis:     "latency",
			Steps:    steps,
			StepNS:   stepNS,
		})
	}
	return reqs
}

func (c *Client) fanOut(n, workers int, run func(i int)) {
	if workers < 1 {
		workers = 4
	}
	if workers > n {
		workers = n
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			run(i)
		}(i)
	}
	wg.Wait()
}
