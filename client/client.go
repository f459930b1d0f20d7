// Package client is the resilient Go SDK for memmodeld's /v1 HTTP API.
//
// A Client wraps one daemon base URL with the full reliability stack
// the service contract assumes callers bring:
//
//   - connection reuse via a pooled http.Transport;
//   - per-attempt timeouts nested under an overall deadline budget;
//   - capped exponential backoff with deterministic, seeded jitter that
//     honors the server's Retry-After hints (every 429 and 503 carries
//     one);
//   - a consecutive-failure circuit breaker with a half-open probe, so
//     a down daemon costs microseconds instead of timeouts;
//   - batch helpers that push sweep grids through bounded parallelism.
//
// Retryable failures are transport errors (refused, reset, severed
// mid-body — the chaos middleware's drop fault) plus 429/500/502/503/
// 504 replies; validation errors (4xx) and 422 no_convergence are
// returned immediately. When the budget or attempt cap runs out the
// call returns ErrBudgetExhausted wrapping the last attempt's error.
// The wire types live in repro/api, shared with internal/serve, so a
// request literal compiles against the same structs the daemon decodes.
//
//	c := client.New("http://127.0.0.1:8080",
//		client.WithBudget(10*time.Second),
//		client.WithSeed(42))
//	resp, err := c.Evaluate(ctx, api.EvaluateRequest{
//		Params: api.ParamsSpec{Class: "bigdata"},
//	})
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/api"
)

// Clock abstracts time for deterministic tests: Now feeds the breaker
// and Retry-After math, Sleep is the backoff wait (it must return early
// when ctx is done).
type Clock interface {
	Now() time.Time
	Sleep(ctx context.Context, d time.Duration)
}

type systemClock struct{}

func (systemClock) Now() time.Time { return time.Now() }

func (systemClock) Sleep(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

type config struct {
	httpClient       *http.Client
	budget           time.Duration
	attemptTimeout   time.Duration
	maxAttempts      int
	backoffBase      time.Duration
	backoffCap       time.Duration
	seed             int64
	breakerThreshold int
	breakerCooldown  time.Duration
	clock            Clock
}

func defaultConfig() config {
	return config{
		budget:           30 * time.Second,
		attemptTimeout:   5 * time.Second,
		maxAttempts:      8,
		backoffBase:      50 * time.Millisecond,
		backoffCap:       2 * time.Second,
		seed:             1,
		breakerThreshold: 8,
		breakerCooldown:  5 * time.Second,
		clock:            systemClock{},
	}
}

// Option configures a Client.
type Option func(*config)

// WithHTTPClient substitutes the underlying http.Client (e.g. to point
// at an httptest server or a custom transport). The default is a
// dedicated pooled transport so connections are reused across calls.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *config) {
		if hc != nil {
			c.httpClient = hc
		}
	}
}

// WithBudget sets the overall per-call deadline covering every attempt
// and backoff sleep. 0 disables the client-side budget and defers
// entirely to the caller's context.
func WithBudget(d time.Duration) Option {
	return func(c *config) {
		if d >= 0 {
			c.budget = d
		}
	}
}

// WithAttemptTimeout bounds each individual attempt inside the budget.
func WithAttemptTimeout(d time.Duration) Option {
	return func(c *config) {
		if d > 0 {
			c.attemptTimeout = d
		}
	}
}

// WithMaxAttempts caps attempts per call (first try included).
func WithMaxAttempts(n int) Option {
	return func(c *config) {
		if n > 0 {
			c.maxAttempts = n
		}
	}
}

// WithBackoff sets the exponential backoff's base and cap. The wait
// before retry n is min(cap, base·2ⁿ) scaled by jitter in [0.5, 1.5),
// or the server's Retry-After when that is larger.
func WithBackoff(base, cap time.Duration) Option {
	return func(c *config) {
		if base > 0 {
			c.backoffBase = base
		}
		if cap > 0 {
			c.backoffCap = cap
		}
	}
}

// WithSeed seeds the jitter sequence so a retry schedule replays
// deterministically — the client-side mirror of memmodeld's
// -fault-seed.
func WithSeed(seed int64) Option {
	return func(c *config) { c.seed = seed }
}

// WithBreaker shapes the circuit breaker: open after threshold
// consecutive retryable failures, fast-fail for cooldown, then probe.
// threshold 0 disables the breaker.
func WithBreaker(threshold int, cooldown time.Duration) Option {
	return func(c *config) {
		c.breakerThreshold = threshold
		if cooldown > 0 {
			c.breakerCooldown = cooldown
		}
	}
}

// WithClock substitutes the time source (test seam).
func WithClock(clk Clock) Option {
	return func(c *config) {
		if clk != nil {
			c.clock = clk
		}
	}
}

// Client is a resilient memmodeld API client. It is safe for
// concurrent use.
type Client struct {
	base    string
	hc      *http.Client
	cfg     config
	breaker *breaker
	stats   counters

	mu  sync.Mutex
	rng *rand.Rand
}

// New returns a Client for the daemon at baseURL (scheme and host,
// e.g. "http://127.0.0.1:8080").
func New(baseURL string, opts ...Option) *Client {
	cfg := defaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	hc := cfg.httpClient
	if hc == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = 32
		hc = &http.Client{Transport: tr}
	}
	c := &Client{
		base: strings.TrimRight(baseURL, "/"),
		hc:   hc,
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.seed)),
	}
	if cfg.breakerThreshold > 0 {
		c.breaker = newBreaker(cfg.breakerThreshold, cfg.breakerCooldown, cfg.clock, &c.stats.breakerOpens)
	}
	return c
}

// Evaluate solves a single-tier operating point (POST /v1/evaluate).
func (c *Client) Evaluate(ctx context.Context, req api.EvaluateRequest) (*api.EvaluateResponse, error) {
	var resp api.EvaluateResponse
	if err := c.do(ctx, http.MethodPost, "/v1/evaluate", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// EvaluateTopology solves an N-tier memory topology (POST
// /v1/evaluate/topology): flat, tiered (Eq. 5), NUMA local/remote
// and interleaved shapes alike.
func (c *Client) EvaluateTopology(ctx context.Context, req api.TopologyRequest) (*api.TopologyResponse, error) {
	var resp api.TopologyResponse
	if err := c.do(ctx, http.MethodPost, "/v1/evaluate/topology", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// ClusterSimulate races routing policies over a simulated fleet of
// memmodel hosts (POST /v1/cluster/simulate). An empty request runs
// the reference 8-host DRAM/HBM/CXL fleet under the three Table 6
// classes with all three policies.
func (c *Client) ClusterSimulate(ctx context.Context, req api.ClusterRequest) (*api.ClusterResponse, error) {
	var resp api.ClusterResponse
	if err := c.do(ctx, http.MethodPost, "/v1/cluster/simulate", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// WorkloadValidate dry-runs a workload spec (POST /v1/workload/validate):
// the daemon compiles the spec, reports the deterministic trace identity
// (arrival count and hash), and predicts the KPIs the workload would
// observe — without any traffic being generated. An empty spec validates
// the reference three-client mix.
func (c *Client) WorkloadValidate(ctx context.Context, req api.WorkloadValidateRequest) (*api.WorkloadValidateResponse, error) {
	var resp api.WorkloadValidateResponse
	if err := c.do(ctx, http.MethodPost, "/v1/workload/validate", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Sweep runs a latency or bandwidth grid (POST /v1/sweep).
func (c *Client) Sweep(ctx context.Context, req api.SweepRequest) (*api.SweepResponse, error) {
	var resp api.SweepResponse
	if err := c.do(ctx, http.MethodPost, "/v1/sweep", req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Healthz checks daemon health (GET /healthz). A draining daemon
// answers 503 with Retry-After, so Healthz retries within the budget —
// which makes it double as a readiness wait after boot.
func (c *Client) Healthz(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// maxResponseBytes bounds how much of a reply the client will buffer;
// the largest legitimate body (a full sweep grid) is well under it.
const maxResponseBytes = 8 << 20

// do runs the retry loop: breaker gate, attempt with its own timeout,
// classification, backoff (jittered, Retry-After-aware, budget-capped).
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	if c.cfg.budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.cfg.budget)
		defer cancel()
	}
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("client: encode request: %w", err)
		}
	}

	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return c.exhausted(attempt, lastErr, err)
		}
		if !c.breaker.allow() {
			c.stats.fastFails.Add(1)
			if lastErr != nil {
				return fmt.Errorf("%w (last error: %w)", ErrCircuitOpen, lastErr)
			}
			return ErrCircuitOpen
		}
		c.stats.attempts.Add(1)
		if attempt > 0 {
			c.stats.retries.Add(1)
		}

		retryAfter, err := c.attempt(ctx, method, path, body, out)
		if err == nil {
			c.breaker.success()
			c.stats.successes.Add(1)
			return nil
		}
		lastErr = err
		c.stats.failures.Add(1)
		if !retryable(err) {
			// The server answered coherently; a validation error is no
			// reason to trip the breaker.
			c.breaker.success()
			return err
		}
		c.breaker.failure()

		if attempt+1 >= c.cfg.maxAttempts {
			return c.exhausted(attempt+1, lastErr, nil)
		}
		d := c.backoff(attempt)
		if retryAfter > d {
			d = retryAfter
			c.stats.retryAfterHonored.Add(1)
		}
		if deadline, ok := ctx.Deadline(); ok && c.cfg.clock.Now().Add(d).After(deadline) {
			return c.exhausted(attempt+1, lastErr, nil)
		}
		c.stats.backoffNS.Add(int64(d))
		c.cfg.clock.Sleep(ctx, d)
	}
}

// exhausted builds the budget/attempts-exhausted error, always keeping
// the last attempt's error in the chain per the API contract.
func (c *Client) exhausted(attempts int, lastErr, ctxErr error) error {
	switch {
	case lastErr != nil:
		return fmt.Errorf("%w after %d attempts: %w", ErrBudgetExhausted, attempts, lastErr)
	case ctxErr != nil:
		return fmt.Errorf("%w: %w", ErrBudgetExhausted, ctxErr)
	default:
		return ErrBudgetExhausted
	}
}

// backoff returns the jittered exponential wait before retry n:
// min(cap, base·2ⁿ) × [0.5, 1.5), from the seeded sequence.
func (c *Client) backoff(attempt int) time.Duration {
	if attempt > 20 {
		attempt = 20
	}
	raw := c.cfg.backoffBase << uint(attempt)
	if raw > c.cfg.backoffCap || raw <= 0 {
		raw = c.cfg.backoffCap
	}
	c.mu.Lock()
	jitter := 0.5 + c.rng.Float64()
	c.mu.Unlock()
	return time.Duration(float64(raw) * jitter)
}

// attempt performs one HTTP round trip under the per-attempt timeout
// and maps the reply: 2xx decodes into out, anything else becomes an
// *APIError carrying the envelope's code and the Retry-After hint.
func (c *Client) attempt(ctx context.Context, method, path string, body []byte, out any) (time.Duration, error) {
	actx := ctx
	if c.cfg.attemptTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, c.cfg.attemptTimeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, c.base+path, rd)
	if err != nil {
		return 0, fmt.Errorf("client: build request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	res, err := c.hc.Do(req)
	if err != nil {
		return 0, fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer res.Body.Close()
	blob, err := io.ReadAll(io.LimitReader(res.Body, maxResponseBytes))
	if err != nil {
		return 0, fmt.Errorf("client: %s %s: read body: %w", method, path, err)
	}
	if res.StatusCode >= 200 && res.StatusCode < 300 {
		if out != nil {
			if err := json.Unmarshal(blob, out); err != nil {
				// A 2xx with a garbled body reads as corruption in
				// flight — retryable, like any transport fault.
				return 0, fmt.Errorf("client: %s %s: decode response: %w", method, path, err)
			}
		}
		return 0, nil
	}

	apiErr := &APIError{
		Status:     res.StatusCode,
		Code:       fmt.Sprintf("http_%d", res.StatusCode),
		RetryAfter: parseRetryAfter(res.Header.Get("Retry-After"), c.cfg.clock.Now()),
	}
	var eb api.ErrorBody
	if json.Unmarshal(blob, &eb) == nil && eb.Error.Code != "" {
		apiErr.Code = eb.Error.Code
		apiErr.Message = eb.Error.Message
		apiErr.Details = eb.Error.Details
	}
	return apiErr.RetryAfter, apiErr
}

// IsCircuitOpen reports whether err is a breaker fast-fail.
func IsCircuitOpen(err error) bool { return errors.Is(err, ErrCircuitOpen) }
