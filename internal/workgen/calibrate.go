package workgen

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/stats"
)

// Observed reduces a run's observations into the same KPI shape the
// predictor emits: a "total" aggregate first, then one KPI per client.
// Arrivals inside the spec's warmup window are discarded (daemon and
// driver caches are filling), and rates are measured over the
// post-warmup generation window rather than wall time so offered load
// compares like-for-like with the spec.
func Observed(spec *Spec, res *RunResult) []KPI {
	window := spec.Duration - spec.Warmup
	perClient := make([][]Observation, len(spec.Clients))
	var all []Observation
	for _, o := range res.Obs {
		if o.At < spec.Warmup {
			continue
		}
		perClient[o.Client] = append(perClient[o.Client], o)
		all = append(all, o)
	}
	kpis := []KPI{observedKPI("total", all, window)}
	for i, c := range spec.Clients {
		kpis = append(kpis, observedKPI(c.Name, perClient[i], window))
	}
	return kpis
}

// observedKPI folds one observation set into a KPI over window seconds.
func observedKPI(name string, obs []Observation, window float64) KPI {
	k := KPI{Name: name}
	if window <= 0 || len(obs) == 0 {
		return k
	}
	var ok, shed int
	var lat []float64
	for _, o := range obs {
		if o.OK {
			ok++
			lat = append(lat, o.Latency.Seconds())
		} else if o.Shed {
			shed++
		}
	}
	k.OfferedRPS = float64(len(obs)) / window
	k.ThroughputRPS = float64(ok) / window
	k.ShedRate = float64(shed) / float64(len(obs))
	if len(lat) > 0 {
		ps, _ := stats.Percentiles(lat, 95, 99) // lat is non-empty
		k.MeanMS = robustMean(lat) * 1e3
		k.P95MS = ps[0] * 1e3
		k.P99MS = ps[1] * 1e3
	}
	return k
}

// robustMean is the 1%-upper-trimmed mean: the largest ceil(1%) of the
// samples are dropped before averaging. Both the observed and the
// calibrated-prediction side of a report use it, so it estimates the
// same population statistic on both — a lone collector or scheduler
// pause otherwise dominates a small traffic source's plain mean and
// reads as calibration error when it is measurement noise.
func robustMean(xs []float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	drop := (len(ys) + 99) / 100
	if drop >= len(ys) {
		drop = len(ys) - 1
	}
	return stats.Mean(ys[:len(ys)-drop])
}

// Holdout splits a completed run into a calibration side and a held-out
// validation side, interleaving post-warmup arrivals within each
// scenario stream in ABBA blocks. The calibration side becomes
// ProbeSamples for Predict; the returned result carries only the
// held-out half (its Trace keeps the full run's hash as the identity
// witness), so a prediction calibrated on one half is scored against
// arrivals it never saw. Because the two halves interleave in time they
// share the same wall-clock conditions — environment drift between a
// separate probe pass and the measured run, the dominant error source
// at sub-millisecond service times, cancels instead of accumulating
// into the score. The ABBA order (rather than plain alternation)
// matters under queueing: a burst's first arrival runs unqueued while
// the next waits behind it, so an AB split would hand every fast
// first position to one side and bias the comparison.
func Holdout(spec *Spec, res *RunResult) (ProbeSamples, *RunResult) {
	samples := ProbeSamples{}
	val := &RunResult{Trace: &Trace{Hash: res.Trace.Hash}, Wall: res.Wall}
	seq := map[string]int{}
	for _, o := range res.Obs {
		if o.At < spec.Warmup {
			continue
		}
		key := spec.Clients[o.Client].Scenarios[o.Scenario].Key
		n := seq[key]
		seq[key] = n + 1
		if n%4 == 0 || n%4 == 3 {
			// Calibration half: only completed requests carry a service
			// time; failures here are simply lost samples.
			if o.OK {
				samples[key] = append(samples[key], o.Latency.Seconds())
			}
		} else {
			// Validation half keeps failures too — shed rate is scored.
			val.Trace.Arrivals = append(val.Trace.Arrivals, Arrival{At: o.At, Client: o.Client, Scenario: o.Scenario})
			val.Obs = append(val.Obs, o)
		}
	}
	return samples, val
}

// Pair is one (source, KPI) observed/predicted comparison of a report.
type Pair struct {
	Name      string  `json:"name"`
	KPI       string  `json:"kpi"`
	Observed  float64 `json:"observed"`
	Predicted float64 `json:"predicted"`
}

// APE is the pair's absolute percentage error, or NaN when the
// observation is zero.
func (p Pair) APE() float64 {
	if p.Observed == 0 {
		return math.NaN()
	}
	return math.Abs(p.Predicted-p.Observed) / math.Abs(p.Observed) * 100
}

// Report scores a prediction against an observed run.
type Report struct {
	Name      string `json:"name"`
	Seed      uint64 `json:"seed"`
	TraceHash string `json:"trace_hash"`
	Arrivals  int    `json:"arrivals"`

	Observed  []KPI           `json:"observed"`
	Predicted []KPI           `json:"predicted"`
	Scenarios []ScenarioPoint `json:"scenarios"`
	Pairs     []Pair          `json:"pairs"`

	// ThroughputMAPE and MeanLatencyMAPE are the calibration gates:
	// mean absolute percentage error across sources for the two KPIs
	// the analytic model must track.
	ThroughputMAPE  float64 `json:"mape_throughput"`
	MeanLatencyMAPE float64 `json:"mape_mean_latency"`
	// OverallMAPE folds every finite pair in; PearsonR is the linear
	// correlation of log10 observed vs log10 predicted over positive
	// pairs (NaN when degenerate). Both are reported, not gated.
	OverallMAPE float64 `json:"mape_overall"`
	PearsonR    float64 `json:"pearson_r"`
}

// Score builds the calibration report: per-source observed/predicted
// pairs for throughput, mean, p95, and p99 latency, the two gated
// MAPEs, the overall MAPE, and log-space Pearson-r.
func Score(spec *Spec, res *RunResult, pred *Prediction) (*Report, error) {
	obs := Observed(spec, res)
	if len(obs) != len(pred.KPIs) {
		return nil, fmt.Errorf("workgen: observed %d KPI rows, predicted %d", len(obs), len(pred.KPIs))
	}
	rep := &Report{
		Name:      spec.Name,
		Seed:      spec.Seed,
		TraceHash: res.Trace.HashHex(),
		Arrivals:  len(res.Trace.Arrivals),
		Observed:  obs,
		Predicted: pred.KPIs,
		Scenarios: pred.Scenarios,
	}
	var thptO, thptP, meanO, meanP []float64
	for i, o := range obs {
		p := pred.KPIs[i]
		rep.Pairs = append(rep.Pairs,
			Pair{Name: o.Name, KPI: "throughput_rps", Observed: o.ThroughputRPS, Predicted: p.ThroughputRPS},
			Pair{Name: o.Name, KPI: "mean_ms", Observed: o.MeanMS, Predicted: p.MeanMS},
			Pair{Name: o.Name, KPI: "p95_ms", Observed: o.P95MS, Predicted: p.P95MS},
			Pair{Name: o.Name, KPI: "p99_ms", Observed: o.P99MS, Predicted: p.P99MS},
		)
		thptO = append(thptO, o.ThroughputRPS)
		thptP = append(thptP, p.ThroughputRPS)
		meanO = append(meanO, o.MeanMS)
		meanP = append(meanP, p.MeanMS)
	}

	var err error
	if rep.ThroughputMAPE, err = stats.MAPE(thptO, thptP); err != nil {
		return nil, fmt.Errorf("workgen: throughput MAPE: %w", err)
	}
	if rep.MeanLatencyMAPE, err = stats.MAPE(meanO, meanP); err != nil {
		return nil, fmt.Errorf("workgen: mean latency MAPE: %w", err)
	}

	var allO, allP, logO, logP []float64
	for _, pr := range rep.Pairs {
		allO = append(allO, pr.Observed)
		allP = append(allP, pr.Predicted)
		if pr.Observed > 0 && pr.Predicted > 0 {
			logO = append(logO, math.Log10(pr.Observed))
			logP = append(logP, math.Log10(pr.Predicted))
		}
	}
	if rep.OverallMAPE, err = stats.MAPE(allO, allP); err != nil {
		return nil, fmt.Errorf("workgen: overall MAPE: %w", err)
	}
	if r, err := stats.Pearson(logO, logP); err == nil {
		rep.PearsonR = r
	} else {
		rep.PearsonR = math.NaN()
	}
	return rep, nil
}
