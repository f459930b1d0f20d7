package workgen

import (
	"fmt"
	"math"

	"repro/api"
	"repro/internal/model"
)

// Caps on compiled workloads so one spec cannot monopolize a daemon or
// the generator: client/scenario counts bound the pricing matrix, the
// duration and expected-arrival caps bound the trace.
const (
	MaxClients            = 16
	MaxScenariosPerClient = 16
	MaxDurationS          = 120.0
	MaxArrivals           = 1_000_000
)

// Scenario is one compiled evaluate scenario of a client's mix.
type Scenario struct {
	Name   string
	Weight float64 // normalized within the client
	// Request is the wire form the driver POSTs to /v1/evaluate.
	Request api.EvaluateRequest
	// Params/Topology are the materialized model inputs behind Request.
	Params   model.Params
	Topology model.Topology
	// Key is the canonical scenario key of Request (names excluded) —
	// the identity observed traffic and predictions share.
	Key string
}

// Client is one compiled traffic source: an absolute rate, a renewal
// arrival process, and a weighted scenario mix.
type Client struct {
	Name string
	Rate float64 // requests/second
	// Arrival is the normalized wire form behind Process (defaults
	// filled), kept for canonical cache keys and reports.
	Arrival   api.ArrivalSpec
	Process   Process
	Scenarios []Scenario

	// cum is the cumulative normalized scenario weight, for O(len) draws.
	cum []float64
}

// draw picks a scenario index from the client's mix: the first whose
// cumulative edge exceeds u, else the last (0 for an empty mix).
func (c *Client) draw(u float64) int {
	i := 0
	for i < len(c.cum)-1 && u >= c.cum[i] {
		i++
	}
	return i
}

// Spec is a compiled, validated workload ready to generate traces.
type Spec struct {
	Name     string
	TotalRPS float64
	Duration float64 // seconds
	Warmup   float64 // seconds discarded from observed KPIs
	Seed     uint64
	Clients  []Client
}

// DefaultClients is the reference three-client mix: one client per
// Table 6 workload class with skewed 4/2/1 rate shares and one arrival
// process each (Poisson, smooth gamma, bursty weibull). Each client
// mixes its class's baseline scenario with a memory-stressed variant,
// so the trace exercises distinct scenarios.
func DefaultClients() []api.WorkloadClientSpec {
	return []api.WorkloadClientSpec{
		{
			Name:    "batch",
			Share:   4,
			Arrival: api.ArrivalSpec{Process: "poisson"},
			Scenarios: []api.WorkloadScenarioSpec{
				{Name: "bigdata-base", Weight: 3, Params: api.ParamsSpec{Class: "bigdata"}},
				{Name: "bigdata-slow", Weight: 1, Params: api.ParamsSpec{Class: "bigdata"},
					Platform: api.PlatformSpec{CompulsoryNS: 135}},
			},
		},
		{
			Name:    "interactive",
			Share:   2,
			Arrival: api.ArrivalSpec{Process: "gamma", Shape: 2},
			Scenarios: []api.WorkloadScenarioSpec{
				{Name: "enterprise-base", Weight: 3, Params: api.ParamsSpec{Class: "enterprise"}},
				{Name: "enterprise-wide", Weight: 1, Params: api.ParamsSpec{Class: "enterprise"},
					Platform: api.PlatformSpec{PeakGBps: 68}},
			},
		},
		{
			Name:    "science",
			Share:   1,
			Arrival: api.ArrivalSpec{Process: "weibull", Shape: 0.8},
			Scenarios: []api.WorkloadScenarioSpec{
				{Name: "hpc-base", Weight: 2, Params: api.ParamsSpec{Class: "hpc"}},
				{Name: "hpc-far", Weight: 1, Params: api.ParamsSpec{Class: "hpc"},
					Platform: api.PlatformSpec{CompulsoryNS: 120}},
			},
		},
	}
}

// Compile materializes and validates a wire spec: defaults filled,
// shares normalized into absolute rates, scenario mixes normalized and
// canonically keyed, arrival processes constructed. Errors wrap
// model.ErrInvalidParams / model.ErrInvalidPlatform.
func Compile(ws api.WorkloadSpec) (*Spec, error) {
	s := &Spec{
		Name:     ws.Name,
		TotalRPS: ws.TotalRPS,
		Duration: ws.DurationS,
		Warmup:   ws.WarmupS,
		Seed:     ws.Seed,
	}
	if s.Name == "" {
		s.Name = "workload"
	}
	if s.TotalRPS == 0 {
		s.TotalRPS = 200
	}
	if s.TotalRPS < 0 || math.IsNaN(s.TotalRPS) || math.IsInf(s.TotalRPS, 0) {
		return nil, fmt.Errorf("%w: total_rps must be positive", model.ErrInvalidParams)
	}
	if s.Duration == 0 {
		s.Duration = 2
	}
	if !(s.Duration > 0 && s.Duration <= MaxDurationS) { // also rejects NaN
		return nil, fmt.Errorf("%w: duration_s must be in (0,%g]", model.ErrInvalidParams, MaxDurationS)
	}
	if s.Warmup == 0 {
		s.Warmup = s.Duration / 8
	}
	if !(s.Warmup >= 0 && s.Warmup < s.Duration) {
		return nil, fmt.Errorf("%w: warmup_s must be in [0,duration_s)", model.ErrInvalidParams)
	}
	if s.TotalRPS*s.Duration > MaxArrivals {
		return nil, fmt.Errorf("%w: expected arrivals %.0f exceed the %d cap (shrink total_rps or duration_s)",
			model.ErrInvalidParams, s.TotalRPS*s.Duration, MaxArrivals)
	}

	clients := ws.Clients
	if len(clients) == 0 {
		clients = DefaultClients()
	}
	if len(clients) > MaxClients {
		return nil, fmt.Errorf("%w: at most %d clients per workload", model.ErrInvalidParams, MaxClients)
	}
	var shareSum float64
	shares := make([]float64, len(clients))
	for i, cs := range clients {
		share := cs.Share
		if share == 0 {
			share = 1
		}
		if !(share > 0 && share < math.Inf(1)) {
			return nil, fmt.Errorf("%w: client %d share must be positive and finite", model.ErrInvalidParams, i)
		}
		shares[i] = share
		shareSum += share
	}

	for i, cs := range clients {
		name := cs.Name
		if name == "" {
			name = fmt.Sprintf("client%d", i)
		}
		rate := s.TotalRPS * shares[i] / shareSum
		proc, err := NewProcess(cs.Arrival, rate)
		if err != nil {
			return nil, fmt.Errorf("client %s: %w", name, err)
		}
		arrival := api.ArrivalSpec{Process: proc.Name(), Shape: cs.Arrival.Shape}
		if arrival.Shape == 0 {
			arrival.Shape = 1
		}
		c := Client{Name: name, Rate: rate, Arrival: arrival, Process: proc}

		scens := cs.Scenarios
		if len(scens) == 0 {
			scens = []api.WorkloadScenarioSpec{
				{Name: "bigdata", Params: api.ParamsSpec{Class: "bigdata"}},
				{Name: "enterprise", Params: api.ParamsSpec{Class: "enterprise"}},
				{Name: "hpc", Params: api.ParamsSpec{Class: "hpc"}},
			}
		}
		if len(scens) > MaxScenariosPerClient {
			return nil, fmt.Errorf("%w: client %s: at most %d scenarios per client",
				model.ErrInvalidParams, name, MaxScenariosPerClient)
		}
		var wsum float64
		weights := make([]float64, len(scens))
		for j, sc := range scens {
			w := sc.Weight
			if w == 0 {
				w = 1
			}
			if !(w > 0 && w < math.Inf(1)) {
				return nil, fmt.Errorf("%w: client %s scenario %d weight must be positive and finite",
					model.ErrInvalidParams, name, j)
			}
			weights[j] = w
			wsum += w
		}
		for j, sc := range scens {
			p, err := sc.Params.Params()
			if err != nil {
				return nil, fmt.Errorf("client %s scenario %d: %w", name, j, err)
			}
			pl, err := sc.Platform.Platform()
			if err != nil {
				return nil, fmt.Errorf("client %s scenario %d: %w", name, j, err)
			}
			sname := sc.Name
			if sname == "" {
				sname = fmt.Sprintf("%s/%s", name, p.Name)
			}
			c.Scenarios = append(c.Scenarios, Scenario{
				Name:     sname,
				Weight:   weights[j] / wsum,
				Request:  api.EvaluateRequest{Params: sc.Params, Platform: sc.Platform},
				Params:   p,
				Topology: pl.Topology(),
				Key:      model.ScenarioKey("evaluate", model.CanonicalParams(p), model.CanonicalPlatform(pl)),
			})
		}
		c.cum = make([]float64, len(c.Scenarios))
		acc := 0.0
		for j, sc := range c.Scenarios {
			acc += sc.Weight
			c.cum[j] = acc
		}
		s.Clients = append(s.Clients, c)
	}
	return s, nil
}
