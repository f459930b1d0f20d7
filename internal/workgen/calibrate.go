package workgen

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/stats"
)

// Calibrate is the live calibration loop. It replays the spec's trace
// open-loop against eval, splits the run into two ABBA halves (see
// holdout), takes per-scenario service times from one half, predicts
// every KPI at the load the whole trace offered to a server with slots
// concurrent service slots, and scores the prediction. The report's
// trace identity and its offered and throughput rates cover the whole
// post-warmup run; its latencies and shed rate are scored on the
// held-out half only, so the prediction is checked against requests it
// was not calibrated on. The run result is returned for its wall time,
// and also with an error when the run was canceled.
func Calibrate(ctx context.Context, spec *Spec, eval EvalFunc, slots int, opt RunOptions) (*Report, *RunResult, error) {
	res, err := Run(ctx, spec, spec.Trace(), eval, opt)
	if err != nil {
		return nil, res, err
	}
	service, held := holdout(spec, res)
	pred, err := Predict(ctx, spec, res.Trace, Calibration{Service: service, Slots: slots})
	if err != nil {
		return nil, res, err
	}
	rep, err := score(spec, res, held, pred)
	return rep, res, err
}

// observed reduces a run's observations into the same KPI shape the
// predictor emits: a "total" aggregate first, then one KPI per client.
// Arrivals inside the spec's warmup window are discarded (daemon and
// driver caches are filling), and rates are measured over the
// post-warmup generation window rather than wall time so offered load
// compares like-for-like with the spec. Offered and throughput rates
// count every post-warmup observation; latency and shed rate count only
// the held-out ones (held[i] for res.Obs[i]).
func observed(spec *Spec, res *RunResult, held []bool) []KPI {
	type source struct {
		n, ok, scored, shed int
		lat                 []float64
	}
	srcs := make([]source, len(spec.Clients)+1)
	for i, o := range res.Obs {
		if o.At < spec.Warmup {
			continue
		}
		for _, s := range [2]*source{&srcs[0], &srcs[o.Client+1]} {
			s.n++
			if o.OK {
				s.ok++
			}
			if !held[i] {
				continue
			}
			s.scored++
			if o.OK {
				s.lat = append(s.lat, o.Latency.Seconds())
			} else if o.Shed {
				s.shed++
			}
		}
	}
	window := spec.Duration - spec.Warmup
	kpis := make([]KPI, len(srcs))
	for i, s := range srcs {
		k := &kpis[i]
		k.Name = "total"
		if i > 0 {
			k.Name = spec.Clients[i-1].Name
		}
		if window <= 0 || s.n == 0 {
			continue
		}
		k.OfferedRPS = float64(s.n) / window
		k.ThroughputRPS = float64(s.ok) / window
		if s.scored > 0 {
			k.ShedRate = float64(s.shed) / float64(s.scored)
		}
		if len(s.lat) > 0 {
			ps, _ := stats.Percentiles(s.lat, 95, 99) // lat is non-empty
			k.MeanMS = robustMean(s.lat) * 1e3
			k.P95MS = ps[0] * 1e3
			k.P99MS = ps[1] * 1e3
		}
	}
	return kpis
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

// holdout splits a completed run into a calibration side and a
// held-out validation side, interleaving post-warmup arrivals within
// each scenario stream in ABBA blocks. It returns the calibration
// side's service times (canonical scenario key → seconds, completed
// requests only) and, per observation, whether it is held out. Because
// the two halves interleave in time they share the same wall-clock
// conditions — environment drift between a separate calibration pass
// and the measured run, the dominant error source at sub-millisecond
// service times, cancels instead of accumulating into the score. The
// ABBA order (rather than plain alternation) matters under queueing: a
// burst's first arrival runs unqueued while the next waits behind it,
// so an AB split would hand every fast first position to one side and
// bias the comparison.
func holdout(spec *Spec, res *RunResult) (map[string][]float64, []bool) {
	service := map[string][]float64{}
	held := make([]bool, len(res.Obs))
	seq := map[string]int{}
	for i, o := range res.Obs {
		if o.At < spec.Warmup {
			continue
		}
		key := spec.Clients[o.Client].Scenarios[o.Scenario].Key
		n := seq[key]
		seq[key] = n + 1
		if n%4 == 1 || n%4 == 2 {
			// Validation half keeps failures too — shed rate is scored.
			held[i] = true
		} else if o.OK {
			// Calibration half: only completed requests carry a service
			// time; failures here are simply lost samples.
			service[key] = append(service[key], o.Latency.Seconds())
		}
	}
	return service, held
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

// score builds the calibration report: per-source observed/predicted
// pairs for throughput, mean, p95, and p99 latency, the two gated
// MAPEs, the overall MAPE, and log-space Pearson-r. held marks the
// observations whose latency and shed are scored (see observed).
func score(spec *Spec, res *RunResult, held []bool, pred *Prediction) (*Report, error) {
	obs := observed(spec, res, held)
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
