package workgen

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/api"
)

// EvalFunc is the transport the driver pushes scenarios through —
// normally client.Client.Evaluate, but tests substitute stubs.
type EvalFunc func(ctx context.Context, req api.EvaluateRequest) (*api.EvaluateResponse, error)

// Observation is one request's outcome in an observed run.
type Observation struct {
	// Index is the arrival's position in the merged trace.
	Index    int
	Client   int
	Scenario int
	// At is the scheduled arrival offset in seconds.
	At float64
	// Latency is dispatch-to-completion: measured from the moment the
	// open-loop pacer released the arrival, so waiting for a free
	// worker under overload shows up as observed latency.
	Latency time.Duration
	// OK marks a decoded 2xx; Shed marks a 429 overload rejection
	// (a budget-exhausted retry chain ending in 429 counts).
	OK   bool
	Shed bool
	// Code is the wire error code of a failed request, "" on success.
	Code string
}

// RunResult is an observed load-generation run.
type RunResult struct {
	Trace *Trace
	Obs   []Observation
	// Wall is launch-to-last-completion wall time.
	Wall time.Duration
}

// RunOptions shape the open-loop driver.
type RunOptions struct {
	// MaxInflight bounds concurrent requests; 0 means 256. Arrivals
	// beyond the bound queue (and their queueing shows up as observed
	// latency) rather than being dropped — the driver stays open-loop.
	MaxInflight int
}

// Run replays the trace against eval in real time: each arrival is
// dispatched at its scheduled offset regardless of earlier requests'
// fates (open loop). It returns when every dispatched request has
// completed; ctx cancellation abandons undispatched arrivals but
// drains in-flight ones.
//
// Dispatch goes through a pool of persistent workers. A warm pool
// (rather than a goroutine per request) keeps the measurement overhead
// flat: goroutine cold starts and their allocation churn otherwise
// inflate observed latency well beyond the sequential service time.
// The work queue holds every arrival, so the pacer never blocks — the
// load stays open-loop and worker exhaustion is visible as latency.
func Run(ctx context.Context, spec *Spec, tr *Trace, eval EvalFunc, opt RunOptions) (*RunResult, error) {
	arrivals := tr.Arrivals
	res := &RunResult{Trace: tr}
	if len(arrivals) == 0 {
		return res, nil
	}
	workers := opt.MaxInflight
	if workers <= 0 {
		workers = 256
	}
	if workers > len(arrivals) {
		workers = len(arrivals)
	}
	obs := make([]Observation, len(arrivals))
	dispatched := make([]time.Time, len(arrivals))
	work := make(chan int, len(arrivals))
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := range work {
				a := arrivals[i]
				o := Observation{Index: i, Client: a.Client, Scenario: a.Scenario, At: a.At}
				_, err := eval(ctx, spec.Clients[a.Client].Scenarios[a.Scenario].Request)
				o.Latency = time.Since(dispatched[i])
				if err == nil {
					o.OK = true
				} else {
					o.Code, o.Shed = classifyEvalErr(err)
				}
				obs[i] = o
			}
		}()
	}

	launched := 0
	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
dispatch:
	for i, a := range arrivals {
		wait := time.Duration(a.At*float64(time.Second)) - time.Since(start)
		if wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				break dispatch
			}
		}
		dispatched[i] = time.Now()
		work <- i
		launched++
	}
	close(work)
	for w := 0; w < workers; w++ {
		<-done
	}
	res.Obs, res.Wall = obs[:launched], time.Since(start)
	if launched < len(arrivals) {
		return res, fmt.Errorf("workgen: run canceled after dispatching %d/%d arrivals: %w",
			launched, len(arrivals), ctx.Err())
	}
	return res, nil
}

// wireError matches the client SDK's *APIError structurally. workgen
// cannot import repro/client: the serve handler imports workgen, and
// the client's tests boot that handler, which would close an import
// cycle through the test binary.
type wireError interface {
	error
	HTTPStatus() int
	ErrorCode() string
}

// classifyEvalErr maps a driver error onto (wire code, shed). A budget
// exhausted by retries wraps the last attempt's APIError, so a retry
// chain ending in overload still classifies as shed; everything without
// a wire envelope (circuit open, connection failures) is "transport".
func classifyEvalErr(err error) (string, bool) {
	var we wireError
	if errors.As(err, &we) {
		return we.ErrorCode(), we.HTTPStatus() == http.StatusTooManyRequests
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return "deadline", false
	}
	return "transport", false
}
