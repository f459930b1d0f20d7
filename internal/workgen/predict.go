package workgen

import (
	"context"
	"fmt"

	"repro/internal/model"
	"repro/internal/queueing"
	"repro/internal/stats"
	"repro/internal/units"
)

// KPI is one traffic source's key performance indicators — the shape
// both the observed and the predicted side of the calibration share.
// The first entry of a KPI list is always the "total" aggregate.
type KPI struct {
	Name          string  `json:"name"`
	OfferedRPS    float64 `json:"offered_rps"`
	ThroughputRPS float64 `json:"throughput_rps"`
	// MeanMS is the 1%-upper-trimmed mean latency (see robustMean);
	// observed and predicted KPIs use the same statistic.
	MeanMS   float64 `json:"mean_ms"`
	P95MS    float64 `json:"p95_ms"`
	P99MS    float64 `json:"p99_ms"`
	ShedRate float64 `json:"shed_rate"`
	// Utilization is the predicted server utilization; observed KPIs
	// leave it 0 (the driver cannot see the daemon's occupancy).
	Utilization float64 `json:"utilization"`
}

// ScenarioPoint is one scenario's analytic operating point: the
// model.EvaluateTopology solution behind the prediction, tagged with
// the scenario's normalized share of total traffic.
type ScenarioPoint struct {
	Name           string  `json:"name"`
	Weight         float64 `json:"weight"`
	Key            string  `json:"key"`
	CPI            float64 `json:"cpi"`
	BandwidthBound bool    `json:"bandwidth_bound"`
}

// Calibration carries what the predictor must assume or measure: the
// per-scenario unloaded service times and the server's concurrency.
type Calibration struct {
	// Service maps canonical scenario key → service-time samples in
	// seconds, from Calibrate's calibration half. A missing key falls
	// back to Default seconds.
	Service map[string][]float64
	// Default is the assumed unloaded service time in seconds for
	// scenarios without samples (the dry-run endpoint's path).
	Default float64
	// Slots is the server's concurrent service capacity (memmodeld's
	// admission limit); 0 means 1.
	Slots int
}

// Prediction is the analytic side of the calibration loop.
type Prediction struct {
	KPIs      []KPI           `json:"kpis"`
	Scenarios []ScenarioPoint `json:"scenarios"`
}

// Predict computes the KPIs the workload should observe, from the
// model side only — the trace is an input here, not an observation:
// it is deterministically derived from the spec and seed, so using its
// realized per-client rates (rather than the asymptotic spec rates)
// removes renewal-sampling noise from the comparison without peeking
// at any live measurement.
//
//   - each unique scenario is priced once with model.EvaluateTopology
//     (its hardware operating point lands in Scenarios);
//   - the unloaded per-request service time comes from the calibration
//     (calibration samples or the assumed default);
//   - the queueing lift is an M/M/c approximation via
//     internal/queueing's MM1 curve with service S/c at utilization
//     ρ = λ·S/c — an open-loop workload offers rate independent of
//     delay, so the curve is evaluated directly rather than through the
//     closed-loop fixed point;
//   - throughput caps at capacity c/S with fair-share shedding above it.
func Predict(ctx context.Context, spec *Spec, tr *Trace, cal Calibration) (*Prediction, error) {
	slots := cal.Slots
	if slots <= 0 {
		slots = 1
	}
	if cal.Default <= 0 {
		cal.Default = 200e-6
	}

	// Realized post-warmup per-client rates from the deterministic
	// trace; fall back to the spec's asymptotic rates on an empty
	// window (degenerate but possible with a tiny horizon).
	window := spec.Duration - spec.Warmup
	rates := make([]float64, len(spec.Clients))
	n := 0
	for _, a := range tr.Arrivals {
		if a.At >= spec.Warmup {
			rates[a.Client]++
			n++
		}
	}
	for i := range rates {
		rates[i] /= window
	}
	total := float64(n) / window
	if total <= 0 {
		for i, c := range spec.Clients {
			rates[i] = c.Rate
		}
		total = spec.TotalRPS
	}

	// Price every unique scenario once; accumulate traffic-weighted
	// shares for the report.
	type priced struct {
		point  model.TopologyPoint
		weight float64
		name   string
	}
	pricedByKey := map[string]*priced{}
	var keys []string
	for i, c := range spec.Clients {
		clientShare := rates[i] / total
		for _, sc := range c.Scenarios {
			pr, ok := pricedByKey[sc.Key]
			if !ok {
				pt, err := model.EvaluateTopology(ctx, sc.Params, sc.Topology)
				if err != nil {
					return nil, fmt.Errorf("workgen: price %s: %w", sc.Name, err)
				}
				pr = &priced{point: pt, name: sc.Name}
				pricedByKey[sc.Key] = pr
				keys = append(keys, sc.Key)
			}
			pr.weight += clientShare * sc.Weight
		}
	}

	// Per-client unloaded service-time moments from the calibration.
	serviceFor := func(key string) []float64 {
		if xs, ok := cal.Service[key]; ok && len(xs) > 0 {
			return xs
		}
		return []float64{cal.Default}
	}
	clientMean := make([]float64, len(spec.Clients))
	clientP95 := make([]float64, len(spec.Clients))
	clientP99 := make([]float64, len(spec.Clients))
	var mixMean float64
	// robustMean on both sides of the report: the observed KPIs use the
	// same 1%-upper-trimmed statistic, so calibration and observation
	// estimate the same population mean — asymmetric trimming would
	// bias the comparison on tail-heavy latency distributions.
	for i, c := range spec.Clients {
		for _, sc := range c.Scenarios {
			xs := serviceFor(sc.Key)
			m := robustMean(xs)
			ps, _ := stats.Percentiles(xs, 95, 99) // serviceFor is never empty
			clientMean[i] += sc.Weight * m
			clientP95[i] += sc.Weight * ps[0]
			clientP99[i] += sc.Weight * ps[1]
		}
		mixMean += rates[i] / total * clientMean[i]
	}

	// M/M/c via the MM1 curve with service S/c: the default 95%
	// stability limit keeps the lift finite at and past saturation.
	capacity := float64(slots) / mixMean
	util := total / capacity
	curve := queueing.MM1{Service: units.Duration(mixMean / float64(slots) * 1e9)}
	wait := curve.Delay(util).Seconds()

	shed := 0.0
	if total > capacity {
		shed = 1 - capacity/total
	}

	pred := &Prediction{}
	mkKPI := func(name string, rate, mean, p95, p99 float64) KPI {
		return KPI{
			Name:          name,
			OfferedRPS:    rate,
			ThroughputRPS: rate * (1 - shed),
			MeanMS:        (mean + wait) * 1e3,
			P95MS:         (p95 + wait) * 1e3,
			P99MS:         (p99 + wait) * 1e3,
			ShedRate:      shed,
			Utilization:   util,
		}
	}
	var totMean, totP95, totP99 float64
	for i := range spec.Clients {
		share := rates[i] / total
		totMean += share * clientMean[i]
		totP95 += share * clientP95[i]
		totP99 += share * clientP99[i]
	}
	pred.KPIs = append(pred.KPIs, mkKPI("total", total, totMean, totP95, totP99))
	for i, c := range spec.Clients {
		pred.KPIs = append(pred.KPIs, mkKPI(c.Name, rates[i], clientMean[i], clientP95[i], clientP99[i]))
	}
	for _, key := range keys {
		pr := pricedByKey[key]
		pred.Scenarios = append(pred.Scenarios, ScenarioPoint{
			Name:           pr.name,
			Weight:         pr.weight,
			Key:            key,
			CPI:            pr.point.CPI,
			BandwidthBound: pr.point.BandwidthBound,
		})
	}
	return pred, nil
}
