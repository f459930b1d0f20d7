// Package serve is the transport-agnostic service layer over the
// analytic model: HTTP handlers for the single-tier Eq. 1/4 evaluator,
// the N-tier topology evaluator (tiered Eq. 5, NUMA, die-stacked and
// far-memory tiers), and the Fig. 8–11 style sweeps, a
// sharded scenario cache with singleflight collapsing, a semaphore
// admission controller with load shedding, and live telemetry. The
// cmd/memmodeld daemon is a thin HTTP shell around this package.
//
// The JSON wire types live in the public repro/api package, shared with
// the client SDK; the names below are aliases kept so the service layer
// reads naturally. The wire contract itself (class-or-custom params,
// baseline-defaulting platforms, the unified error envelope) is
// documented on the api types.
package serve

import (
	"repro/api"
	"repro/internal/model"
)

// Wire-type aliases: the canonical definitions live in repro/api.
type (
	CurveSpec            = api.CurveSpec
	CurvePoint           = api.CurvePoint
	ParamsSpec           = api.ParamsSpec
	PlatformSpec         = api.PlatformSpec
	TopologyTierSpec     = api.TopologyTierSpec
	TopologySpec         = api.TopologySpec
	BandwidthVariantSpec = api.BandwidthVariantSpec

	EvaluateRequest = api.EvaluateRequest
	TopologyRequest = api.TopologyRequest
	SweepRequest    = api.SweepRequest

	OperatingPointBody    = api.OperatingPointBody
	SolverBody            = api.SolverBody
	EvaluateResponse      = api.EvaluateResponse
	TopologyTierPointBody = api.TopologyTierPointBody
	TopologyResponse      = api.TopologyResponse
	SweepPointBody        = api.SweepPointBody
	SweepResponse         = api.SweepResponse

	WorkloadSpec             = api.WorkloadSpec
	WorkloadClientSpec       = api.WorkloadClientSpec
	ArrivalSpec              = api.ArrivalSpec
	WorkloadScenarioSpec     = api.WorkloadScenarioSpec
	WorkloadValidateRequest  = api.WorkloadValidateRequest
	WorkloadKPIBody          = api.WorkloadKPIBody
	WorkloadScenarioBody     = api.WorkloadScenarioBody
	WorkloadValidateResponse = api.WorkloadValidateResponse
)

func pointBody(op model.OperatingPoint, pl model.Platform) OperatingPointBody {
	return OperatingPointBody{
		CPI:            op.CPI,
		MissPenaltyNS:  op.MissPenalty.Nanoseconds(),
		QueueNS:        op.QueueDelay.Nanoseconds(),
		DemandGBps:     op.Demand.GBps(),
		DeliveredGBps:  op.Delivered.GBps(),
		Utilization:    op.Utilization,
		BandwidthBound: op.BandwidthBound,
		ThroughputGIPS: op.Throughput(pl) / 1e9,
	}
}
