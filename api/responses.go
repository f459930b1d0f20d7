package api

// OperatingPointBody is the wire form of a solved operating point.
type OperatingPointBody struct {
	CPI            float64 `json:"cpi"`
	MissPenaltyNS  float64 `json:"miss_penalty_ns"`
	QueueNS        float64 `json:"queue_ns"`
	DemandGBps     float64 `json:"demand_gbps"`
	DeliveredGBps  float64 `json:"delivered_gbps"`
	Utilization    float64 `json:"utilization"`
	BandwidthBound bool    `json:"bandwidth_bound"`
	ThroughputGIPS float64 `json:"throughput_gips"`
}

// SolverBody echoes the solver telemetry of the solve(s) behind a
// response. Cached responses replay the telemetry recorded when the
// scenario was first solved.
type SolverBody struct {
	Solves           int64   `json:"solves"`
	Iterations       int64   `json:"iterations"`
	BandwidthLimited int64   `json:"bandwidth_limited"`
	WorstResidual    float64 `json:"worst_residual"`
}

// EvaluateResponse is the body of a /v1/evaluate reply.
type EvaluateResponse struct {
	Workload string             `json:"workload"`
	Platform string             `json:"platform"`
	Point    OperatingPointBody `json:"point"`
	Solver   SolverBody         `json:"solver"`
	Cached   bool               `json:"cached"`
}

// TopologyTierPointBody is one tier's share of a topology reply.
type TopologyTierPointBody struct {
	Name          string  `json:"name"`
	MissPenaltyNS float64 `json:"miss_penalty_ns"`
	DemandGBps    float64 `json:"demand_gbps"`
	DeliveredGBps float64 `json:"delivered_gbps"`
	Utilization   float64 `json:"utilization"`
	Saturated     bool    `json:"saturated"`
}

// TopologyResponse is the body of a /v1/evaluate/topology reply.
type TopologyResponse struct {
	Workload       string                  `json:"workload"`
	Platform       string                  `json:"platform"`
	Policy         string                  `json:"policy"`
	CPI            float64                 `json:"cpi"`
	EffectiveNS    float64                 `json:"effective_ns"`
	BandwidthBound bool                    `json:"bandwidth_bound"`
	Limiter        string                  `json:"limiter,omitempty"`
	Tiers          []TopologyTierPointBody `json:"tiers"`
	Solver         SolverBody              `json:"solver"`
	Cached         bool                    `json:"cached"`
}

// SweepPointBody is one platform variant of a sweep reply.
type SweepPointBody struct {
	Platform string `json:"platform"`
	// Delta is the x position: GB/s per core vs baseline for bandwidth
	// sweeps, added nanoseconds for latency sweeps.
	Delta float64 `json:"delta"`
	// CPI and CPIIncrease map class name to absolute CPI and to the
	// fractional increase over that class's baseline CPI.
	CPI         map[string]float64 `json:"cpi"`
	CPIIncrease map[string]float64 `json:"cpi_increase"`
}

// SweepResponse is the body of a /v1/sweep reply.
type SweepResponse struct {
	Axis   string           `json:"axis"`
	Points []SweepPointBody `json:"points"`
	Solver SolverBody       `json:"solver"`
	Cached bool             `json:"cached"`
}

// ClusterTenantBody is one tenant's SLO metrics in a reply.
type ClusterTenantBody struct {
	Name       string  `json:"name"`
	Offered    int64   `json:"offered"`
	Completed  int64   `json:"completed"`
	Shed       int64   `json:"shed"`
	OfferedRPS float64 `json:"offered_rps"`
	GoodputRPS float64 `json:"goodput_rps"`
	ShedRate   float64 `json:"shed_rate"`
	P50MS      float64 `json:"p50_ms"`
	P95MS      float64 `json:"p95_ms"`
	P99MS      float64 `json:"p99_ms"`
	MeanMS     float64 `json:"mean_ms"`
}

// ClusterHostBody is one host's serving counters in a reply.
type ClusterHostBody struct {
	Name        string  `json:"name"`
	Completions int64   `json:"completions"`
	Shed        int64   `json:"shed"`
	Utilization float64 `json:"utilization"`
	PeakQueue   int     `json:"peak_queue"`
}

// ClusterPolicyBody is one policy's simulation outcome.
type ClusterPolicyBody struct {
	Policy string `json:"policy"`
	// EventHash witnesses the deterministic event order (hex FNV-64a);
	// replaying the same request must reproduce it bit-exactly.
	Events    int64               `json:"events"`
	EventHash string              `json:"event_hash"`
	Fairness  float64             `json:"fairness"`
	Tenants   []ClusterTenantBody `json:"tenants"`
	Hosts     []ClusterHostBody   `json:"hosts"`
}

// ClusterResponse is the body of a /v1/cluster/simulate reply.
type ClusterResponse struct {
	DurationS float64             `json:"duration_s"`
	WarmupS   float64             `json:"warmup_s"`
	Seed      uint64              `json:"seed"`
	Policies  []ClusterPolicyBody `json:"policies"`
	Solver    SolverBody          `json:"solver"`
	Cached    bool                `json:"cached"`
}
