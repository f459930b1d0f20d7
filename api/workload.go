package api

// WorkloadSpec is the seeded, deterministic description of an open-loop
// load-generation run: a total offered rate split across clients with
// skewed shares, each client drawing scenarios from a weighted mix and
// pacing arrivals with its own renewal process. The same spec + seed
// always generates the bit-identical arrival trace (internal/workgen
// witnesses this with a trace hash), so an observed run and a model
// prediction can be compared request-for-request.
type WorkloadSpec struct {
	Name string `json:"name,omitempty"`
	// TotalRPS is the aggregate offered rate across every client; 0
	// means 200.
	TotalRPS float64 `json:"total_rps,omitempty"`
	// DurationS is the arrival horizon in seconds; 0 means 2.
	DurationS float64 `json:"duration_s,omitempty"`
	// WarmupS discards early arrivals from the observed KPIs; 0 means
	// DurationS/8.
	WarmupS float64 `json:"warmup_s,omitempty"`
	// Seed derives every client's arrival and scenario stream; 0 is
	// remapped like trace.NewRNG.
	Seed uint64 `json:"seed,omitempty"`
	// Clients split TotalRPS by Share; empty means the reference
	// three-client mix (one per Table 6 class, 4/2/1 shares, one
	// arrival process each).
	Clients []WorkloadClientSpec `json:"clients,omitempty"`
}

// WorkloadClientSpec is one traffic source inside a workload.
type WorkloadClientSpec struct {
	Name string `json:"name,omitempty"`
	// Share is the client's relative slice of TotalRPS; 0 means 1.
	Share float64 `json:"share,omitempty"`
	// Arrival paces the client's requests; the zero value is Poisson.
	Arrival ArrivalSpec `json:"arrival,omitempty"`
	// Scenarios is the weighted mix of evaluate scenarios this client
	// draws from; empty means the three Table 6 classes on the baseline
	// platform, equally weighted.
	Scenarios []WorkloadScenarioSpec `json:"scenarios,omitempty"`
}

// ArrivalSpec selects the renewal process pacing a client's requests.
// All three processes are parameterized by the client's mean rate; Shape
// controls burstiness for gamma and weibull (shape < 1 is burstier than
// Poisson, shape > 1 smoother; shape 1 degenerates to Poisson).
type ArrivalSpec struct {
	// Process is "poisson" (default), "gamma", or "weibull".
	Process string `json:"process,omitempty"`
	// Shape is the gamma/weibull shape parameter in [0.1, 64]; 0 means 1.
	Shape float64 `json:"shape,omitempty"`
}

// WorkloadScenarioSpec is one weighted evaluate scenario of a client's
// mix.
type WorkloadScenarioSpec struct {
	Name string `json:"name,omitempty"`
	// Weight is the scenario's relative draw probability; 0 means 1.
	Weight   float64      `json:"weight,omitempty"`
	Params   ParamsSpec   `json:"params"`
	Platform PlatformSpec `json:"platform,omitempty"`
}

// WorkloadValidateRequest is the body of POST /v1/workload/validate:
// a dry run that predicts the KPIs a workload would observe against
// this daemon without generating any traffic.
type WorkloadValidateRequest struct {
	Spec WorkloadSpec `json:"spec"`
	// ServiceUS is the assumed unloaded per-request service time in
	// microseconds used for the queueing prediction; 0 means 200. Live
	// calibration (memmodelctl loadgen) measures this instead.
	ServiceUS float64 `json:"service_us,omitempty"`
	// Slots is the assumed concurrent service capacity; 0 means the
	// daemon's admission limit.
	Slots int `json:"slots,omitempty"`
}

// WorkloadKPIBody is one traffic source's predicted (or observed) KPI
// set. The first entry of a reply is always the "total" aggregate.
type WorkloadKPIBody struct {
	Name          string  `json:"name"`
	OfferedRPS    float64 `json:"offered_rps"`
	ThroughputRPS float64 `json:"throughput_rps"`
	MeanMS        float64 `json:"mean_ms"`
	P95MS         float64 `json:"p95_ms"`
	P99MS         float64 `json:"p99_ms"`
	ShedRate      float64 `json:"shed_rate"`
	Utilization   float64 `json:"utilization"`
}

// WorkloadScenarioBody is one scenario's analytic operating point in a
// validate reply — the model.EvaluateTopology solution behind the
// prediction, keyed by the daemon's canonical scenario hash.
type WorkloadScenarioBody struct {
	Name string `json:"name"`
	// Weight is the scenario's normalized share of total traffic.
	Weight         float64 `json:"weight"`
	CPI            float64 `json:"cpi"`
	BandwidthBound bool    `json:"bandwidth_bound"`
	Key            string  `json:"key"`
}

// WorkloadValidateResponse is the body of a /v1/workload/validate
// reply: the deterministic trace identity plus the predicted KPIs.
type WorkloadValidateResponse struct {
	Name      string  `json:"name"`
	Seed      uint64  `json:"seed"`
	DurationS float64 `json:"duration_s"`
	// Arrivals is the exact arrival count the spec's seed generates.
	Arrivals int `json:"arrivals"`
	// TraceHash is the hex FNV-64a hash of the merged arrival trace;
	// replaying the same spec must reproduce it bit-exactly.
	TraceHash string `json:"trace_hash"`
	// Clients holds the predicted KPIs, "total" first.
	Clients   []WorkloadKPIBody      `json:"clients"`
	Scenarios []WorkloadScenarioBody `json:"scenarios"`
	Solver    SolverBody             `json:"solver"`
	Cached    bool                   `json:"cached"`
}
