package api

// EvaluateRequest is the body of POST /v1/evaluate.
type EvaluateRequest struct {
	Params   ParamsSpec   `json:"params"`
	Platform PlatformSpec `json:"platform"`
}

// TopologyRequest is the body of POST /v1/evaluate/topology.
type TopologyRequest struct {
	Params   ParamsSpec   `json:"params"`
	Topology TopologySpec `json:"topology"`
}

// BandwidthVariantSpec is one platform variant of a bandwidth sweep.
type BandwidthVariantSpec struct {
	Label      string  `json:"label,omitempty"`
	Channels   int     `json:"channels"`
	GradeMTs   int     `json:"grade_mts"`
	Efficiency float64 `json:"efficiency"`
}

// SweepRequest is the body of POST /v1/sweep: a latency or bandwidth
// grid in the style of Figs. 8–11, batched through the model's
// bounded-parallel grid evaluator.
type SweepRequest struct {
	// Classes are the workloads swept; empty means the three Table 6
	// class means.
	Classes  []ParamsSpec `json:"classes,omitempty"`
	Platform PlatformSpec `json:"platform"`
	// Axis is "latency" or "bandwidth".
	Axis string `json:"axis"`
	// Steps and StepNS shape a latency sweep (steps of step_ns added to
	// the baseline compulsory latency); 0 means 10 steps of 10 ns.
	Steps  int     `json:"steps,omitempty"`
	StepNS float64 `json:"step_ns,omitempty"`
	// Variants shape a bandwidth sweep; empty means the paper's §VI.C.2
	// variant set.
	Variants []BandwidthVariantSpec `json:"variants,omitempty"`
}

// ClusterHostSpec is one host shape of a fleet request; Count stamps
// out replicas sharing the topology and admission knobs.
type ClusterHostSpec struct {
	Name string `json:"name,omitempty"`
	// Count replicates this host; 0 means 1.
	Count    int          `json:"count,omitempty"`
	Topology TopologySpec `json:"topology"`
	// Slots is the concurrent service capacity; 0 means the topology's
	// hardware thread count.
	Slots int `json:"slots,omitempty"`
	// AdmitRate/AdmitBurst shape the host's token bucket; rate 0
	// disables admission control.
	AdmitRate  float64 `json:"admit_rate,omitempty"`
	AdmitBurst float64 `json:"admit_burst,omitempty"`
}

// ClusterTenantSpec is one workload class offering load to the fleet.
type ClusterTenantSpec struct {
	Name   string     `json:"name,omitempty"`
	Params ParamsSpec `json:"params"`
	// RateRPS is the offered Poisson rate in requests/second.
	RateRPS float64 `json:"rate_rps"`
	// WorkInstr is the request size in instructions; 0 means the
	// reference 5e7.
	WorkInstr float64 `json:"work_instr,omitempty"`
}

// ClusterRequest is the body of POST /v1/cluster/simulate. Empty hosts
// and tenants default to the reference 8-host DRAM/HBM/CXL fleet under
// the three Table 6 classes, so `{}` is a complete request.
type ClusterRequest struct {
	Hosts   []ClusterHostSpec   `json:"hosts,omitempty"`
	Tenants []ClusterTenantSpec `json:"tenants,omitempty"`
	// Policies are the routing policies to race ("round-robin",
	// "least-loaded", "weighted"); empty means all three.
	Policies []string `json:"policies,omitempty"`
	// DurationS is the arrival horizon in simulated seconds; 0 means 4.
	DurationS float64 `json:"duration_s,omitempty"`
	// WarmupS discards early arrivals from the metrics; 0 means
	// DurationS/8.
	WarmupS float64 `json:"warmup_s,omitempty"`
	// Seed derives every arrival stream; 0 is remapped like trace.NewRNG.
	Seed uint64 `json:"seed,omitempty"`
	// RateScale multiplies every tenant rate (load sweeps); 0 means 1.
	RateScale float64 `json:"rate_scale,omitempty"`
}
