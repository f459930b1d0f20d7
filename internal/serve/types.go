// Package serve is the transport-agnostic service layer over the
// analytic model: HTTP handlers for the single-tier Eq. 1/4 evaluator,
// the N-tier topology evaluator (tiered Eq. 5, NUMA, die-stacked and
// far-memory tiers), and the Fig. 8–11 style sweeps, a sharded scenario
// cache with singleflight collapsing for the costlier requests, a
// semaphore admission controller with load shedding, and live
// telemetry. The cmd/memmodeld daemon is a thin HTTP shell around it.
//
// The JSON wire types and error codes live in the public repro/api
// package, shared with the client SDK, and the service layer uses them
// directly. The wire contract itself (class-or-custom params,
// baseline-defaulting platforms, the unified error envelope) is
// documented on the api types.
package serve

import (
	"repro/api"
	"repro/internal/model"
)

func pointBody(op model.OperatingPoint, pl model.Platform) api.OperatingPointBody {
	return api.OperatingPointBody{
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
