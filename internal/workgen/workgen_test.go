package workgen

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/api"
	"repro/client"
	"repro/internal/model"
)

func mustCompile(t *testing.T, ws api.WorkloadSpec) *Spec {
	t.Helper()
	spec, err := Compile(ws)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return spec
}

func TestCompileDefaults(t *testing.T) {
	spec := mustCompile(t, api.WorkloadSpec{})
	if spec.Name != "workload" || spec.TotalRPS != 200 || spec.Duration != 2 {
		t.Fatalf("defaults: name=%q rps=%g dur=%g", spec.Name, spec.TotalRPS, spec.Duration)
	}
	if spec.Warmup != spec.Duration/8 {
		t.Fatalf("warmup default = %g, want %g", spec.Warmup, spec.Duration/8)
	}
	if len(spec.Clients) != 3 {
		t.Fatalf("default clients = %d, want 3", len(spec.Clients))
	}
	// Shares 4/2/1 over 200 rps.
	var sum float64
	for _, c := range spec.Clients {
		sum += c.Rate
	}
	if math.Abs(sum-200) > 1e-9 {
		t.Fatalf("client rates sum to %g, want 200", sum)
	}
	if r := spec.Clients[0].Rate / spec.Clients[2].Rate; math.Abs(r-4) > 1e-9 {
		t.Fatalf("batch/science rate ratio = %g, want 4", r)
	}
	// Scenario weights normalize within each client.
	for _, c := range spec.Clients {
		var w float64
		for _, sc := range c.Scenarios {
			w += sc.Weight
			if sc.Key == "" {
				t.Fatalf("client %s scenario %s has empty cache key", c.Name, sc.Name)
			}
		}
		if math.Abs(w-1) > 1e-9 {
			t.Fatalf("client %s weights sum to %g", c.Name, w)
		}
	}
	// The three arrival processes survive normalization.
	if got := spec.Clients[0].Arrival.Process; got != "poisson" {
		t.Fatalf("batch process = %q", got)
	}
	if got := spec.Clients[2].Arrival; got.Process != "weibull" || got.Shape != 0.8 {
		t.Fatalf("science arrival = %+v", got)
	}
}

func TestCompileRejects(t *testing.T) {
	cases := []struct {
		name string
		ws   api.WorkloadSpec
	}{
		{"negative-rps", api.WorkloadSpec{TotalRPS: -1}},
		{"duration-too-long", api.WorkloadSpec{DurationS: MaxDurationS + 1}},
		{"warmup-past-duration", api.WorkloadSpec{DurationS: 2, WarmupS: 2}},
		{"too-many-arrivals", api.WorkloadSpec{TotalRPS: 1e6, DurationS: 10}},
		{"bad-class", api.WorkloadSpec{Clients: []api.WorkloadClientSpec{{
			Scenarios: []api.WorkloadScenarioSpec{{Params: api.ParamsSpec{Class: "nope"}}},
		}}}},
		{"bad-process", api.WorkloadSpec{Clients: []api.WorkloadClientSpec{{
			Arrival: api.ArrivalSpec{Process: "uniform"},
		}}}},
		{"negative-share", api.WorkloadSpec{Clients: []api.WorkloadClientSpec{{Share: -2}}}},
		// Non-finite values: a NaN duration used to compile, and its
		// Trace never terminated.
		{"nan-duration", api.WorkloadSpec{DurationS: math.NaN()}},
		{"inf-duration", api.WorkloadSpec{DurationS: math.Inf(1)}},
		{"minus-inf-duration", api.WorkloadSpec{DurationS: math.Inf(-1)}},
		{"nan-warmup", api.WorkloadSpec{DurationS: 2, WarmupS: math.NaN()}},
		{"inf-warmup", api.WorkloadSpec{DurationS: 2, WarmupS: math.Inf(1)}},
		{"minus-inf-warmup", api.WorkloadSpec{DurationS: 2, WarmupS: math.Inf(-1)}},
		{"inf-share", api.WorkloadSpec{Clients: []api.WorkloadClientSpec{{Share: math.Inf(1)}, {Share: 1}}}},
		{"inf-weight", api.WorkloadSpec{Clients: []api.WorkloadClientSpec{{
			Scenarios: []api.WorkloadScenarioSpec{
				{Weight: math.Inf(1), Params: api.ParamsSpec{Class: "hpc"}},
				{Weight: 1, Params: api.ParamsSpec{Class: "bigdata"}},
			},
		}}}},
		{"tiny-weibull-shape", api.WorkloadSpec{Clients: []api.WorkloadClientSpec{{
			Arrival: api.ArrivalSpec{Process: "weibull", Shape: 0.018},
		}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Compile(tc.ws)
			if !errors.Is(err, model.ErrInvalidParams) && !errors.Is(err, model.ErrInvalidPlatform) {
				t.Fatalf("Compile err = %v, want a typed invalid-spec error", err)
			}
		})
	}
}

// TestTraceDeterminism is the reproducibility contract: the same spec
// and seed generate the bit-identical trace (witnessed by the hash),
// different seeds diverge, and client streams are independent.
func TestTraceDeterminism(t *testing.T) {
	ws := api.WorkloadSpec{TotalRPS: 300, DurationS: 2, Seed: 42}
	a := mustCompile(t, ws).Trace()
	b := mustCompile(t, ws).Trace()
	if a.Hash != b.Hash || len(a.Arrivals) != len(b.Arrivals) {
		t.Fatalf("same seed diverged: %s (%d) vs %s (%d)",
			a.HashHex(), len(a.Arrivals), b.HashHex(), len(b.Arrivals))
	}
	for i := range a.Arrivals {
		if a.Arrivals[i] != b.Arrivals[i] {
			t.Fatalf("arrival %d differs: %+v vs %+v", i, a.Arrivals[i], b.Arrivals[i])
		}
	}

	ws.Seed = 43
	c := mustCompile(t, ws).Trace()
	if c.Hash == a.Hash {
		t.Fatal("different seeds produced the same trace hash")
	}

	// Expected arrival count: 300 rps x 2 s, within 15%.
	if n := len(a.Arrivals); math.Abs(float64(n)-600) > 90 {
		t.Fatalf("arrivals = %d, want ~600", n)
	}
	// Merged order is time-sorted and inside the horizon.
	last := 0.0
	for _, arr := range a.Arrivals {
		if arr.At < last || arr.At >= 2 {
			t.Fatalf("arrival at %g out of order or horizon (prev %g)", arr.At, last)
		}
		last = arr.At
	}
}

// TestTraceHashGolden pins the default spec's trace literally: the
// per-client stream seeds, the generators and the FNV-64a witness fold
// must all stay bit-identical for reports to stay comparable.
func TestTraceHashGolden(t *testing.T) {
	tr := mustCompile(t, api.WorkloadSpec{}).Trace()
	if got, want := tr.HashHex(), "f1f94ecfb361ed52"; got != want || len(tr.Arrivals) != 444 {
		t.Fatalf("default trace = %s (%d arrivals), want %s (444)", got, len(tr.Arrivals), want)
	}
}

// TestTraceClientStreamsIndependent: removing one client must not
// perturb another client's arrivals (per-client seeded streams).
func TestTraceClientStreamsIndependent(t *testing.T) {
	two := api.WorkloadSpec{
		TotalRPS: 100, DurationS: 1, Seed: 7,
		Clients: []api.WorkloadClientSpec{
			{Name: "a", Share: 1},
			{Name: "b", Share: 1},
		},
	}
	full := mustCompile(t, two).Trace()
	var fromA []Arrival
	for _, arr := range full.Arrivals {
		if arr.Client == 0 {
			fromA = append(fromA, arr)
		}
	}

	// Client "a" alone, at the same absolute rate.
	solo := mustCompile(t, api.WorkloadSpec{
		TotalRPS: 50, DurationS: 1, Seed: 7,
		Clients: []api.WorkloadClientSpec{{Name: "a", Share: 1}},
	}).Trace()
	if len(solo.Arrivals) != len(fromA) {
		t.Fatalf("solo run has %d arrivals, client a contributed %d in the pair",
			len(solo.Arrivals), len(fromA))
	}
	for i := range solo.Arrivals {
		if solo.Arrivals[i].At != fromA[i].At || solo.Arrivals[i].Scenario != fromA[i].Scenario {
			t.Fatalf("arrival %d: solo %+v vs paired %+v", i, solo.Arrivals[i], fromA[i])
		}
	}
}

// stubEval is an in-process EvalFunc with a fixed latency.
func stubEval(delay time.Duration, calls *atomic.Int64) EvalFunc {
	return func(ctx context.Context, req api.EvaluateRequest) (*api.EvaluateResponse, error) {
		if calls != nil {
			calls.Add(1)
		}
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return &api.EvaluateResponse{}, nil
	}
}

func TestRunOpenLoop(t *testing.T) {
	spec := mustCompile(t, api.WorkloadSpec{TotalRPS: 400, DurationS: 0.25, WarmupS: 0.01, Seed: 9})
	tr := spec.Trace()
	var calls atomic.Int64
	res, err := Run(context.Background(), spec, tr, stubEval(time.Millisecond, &calls), RunOptions{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if int(calls.Load()) != len(tr.Arrivals) {
		t.Fatalf("eval called %d times for %d arrivals", calls.Load(), len(tr.Arrivals))
	}
	for i, o := range res.Obs {
		if !o.OK {
			t.Fatalf("observation %d not OK: %+v", i, o)
		}
		if o.Latency <= 0 {
			t.Fatalf("observation %d has non-positive latency", i)
		}
	}
	if res.Wall < 200*time.Millisecond {
		t.Fatalf("run finished in %v, shorter than the trace horizon", res.Wall)
	}
}

func TestRunCancel(t *testing.T) {
	spec := mustCompile(t, api.WorkloadSpec{TotalRPS: 100, DurationS: 5, Seed: 3})
	tr := spec.Trace()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	res, err := Run(ctx, spec, tr, stubEval(0, nil), RunOptions{})
	if err == nil {
		t.Fatal("Run returned nil error after cancellation mid-trace")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline", err)
	}
	if res == nil || len(res.Obs) == 0 || len(res.Obs) >= len(tr.Arrivals) {
		t.Fatalf("canceled run should return a strict prefix of the trace, got %d/%d",
			len(res.Obs), len(tr.Arrivals))
	}
}

func TestClassifyEvalErr(t *testing.T) {
	shedErr := fmt.Errorf("wrap: %w", &client.APIError{Status: http.StatusTooManyRequests, Code: "overloaded"})
	if code, shed := classifyEvalErr(shedErr); code != "overloaded" || !shed {
		t.Fatalf("429 classified as (%q,%v)", code, shed)
	}
	if code, shed := classifyEvalErr(context.DeadlineExceeded); code != "deadline" || shed {
		t.Fatalf("deadline classified as (%q,%v)", code, shed)
	}
	if code, _ := classifyEvalErr(errors.New("boom")); code != "transport" {
		t.Fatalf("unknown error classified as %q", code)
	}
}

// TestPredictScorePlumbing runs the whole observe/predict/score loop
// with a synthetic observation set whose latencies exactly match the
// calibration, so the scored error must be small and the report shape
// complete. No wall-clock dependence.
func TestPredictScorePlumbing(t *testing.T) {
	// Rate x window large enough that per-client renewal-sampling noise
	// (~1/sqrt(n)) sits well inside the MAPE thresholds.
	spec := mustCompile(t, api.WorkloadSpec{TotalRPS: 1000, DurationS: 5, WarmupS: 0.5, Seed: 5})
	tr := spec.Trace()
	const service = 2 * time.Millisecond

	res := &RunResult{Trace: tr, Obs: make([]Observation, len(tr.Arrivals))}
	for i, a := range tr.Arrivals {
		res.Obs[i] = Observation{
			Index: i, Client: a.Client, Scenario: a.Scenario, At: a.At,
			Latency: service, OK: true,
		}
	}

	cal := Calibration{Default: service.Seconds(), Slots: 64}
	pred, err := Predict(context.Background(), spec, tr, cal)
	if err != nil {
		t.Fatalf("Predict: %v", err)
	}
	if len(pred.KPIs) != len(spec.Clients)+1 || pred.KPIs[0].Name != "total" {
		t.Fatalf("prediction KPIs malformed: %+v", pred.KPIs)
	}
	if len(pred.Scenarios) == 0 {
		t.Fatal("prediction carries no scenario points")
	}
	for _, sc := range pred.Scenarios {
		if sc.CPI <= 0 {
			t.Fatalf("scenario %s has CPI %g", sc.Name, sc.CPI)
		}
	}

	rep, err := score(spec, res, heldAll(res), pred)
	if err != nil {
		t.Fatalf("score: %v", err)
	}
	if rep.TraceHash != tr.HashHex() || rep.Arrivals != len(tr.Arrivals) {
		t.Fatalf("report identity mismatch: %+v", rep)
	}
	// Observed latency == calibrated service and utilization is low, so
	// both gates must come in far under the 15% acceptance threshold.
	// Throughput is predicted from the trace's realized rates, so with
	// every request succeeding it must match near-exactly.
	if rep.MeanLatencyMAPE > 5 {
		t.Errorf("mean latency MAPE = %.2f%% on a synthetic exact run", rep.MeanLatencyMAPE)
	}
	if rep.ThroughputMAPE > 1 {
		t.Errorf("throughput MAPE = %.2f%% on a synthetic exact run", rep.ThroughputMAPE)
	}
	if math.IsNaN(rep.PearsonR) || rep.PearsonR < 0.9 {
		t.Errorf("pearson r = %g, want >= 0.9", rep.PearsonR)
	}
	if len(rep.Pairs) != 4*(len(spec.Clients)+1) {
		t.Fatalf("report has %d pairs", len(rep.Pairs))
	}
}

func TestObservedWarmupFiltering(t *testing.T) {
	spec := mustCompile(t, api.WorkloadSpec{TotalRPS: 50, DurationS: 1, WarmupS: 0.5, Seed: 11})
	tr := spec.Trace()
	res := &RunResult{Trace: tr, Obs: make([]Observation, len(tr.Arrivals))}
	kept := 0
	for i, a := range tr.Arrivals {
		o := Observation{Index: i, Client: a.Client, At: a.At, Latency: time.Millisecond, OK: true}
		if a.At < 0.25 {
			// Poison the warmup window: if filtering breaks, the KPIs move.
			o.Latency = time.Second
		}
		if a.At >= spec.Warmup {
			kept++
		}
		res.Obs[i] = o
	}
	kpis := observed(spec, res, heldAll(res))
	total := kpis[0]
	if got := total.ThroughputRPS * (spec.Duration - spec.Warmup); math.Abs(got-float64(kept)) > 0.5 {
		t.Fatalf("post-warmup completions = %g, want %d", got, kept)
	}
	if total.MeanMS > 1.5 {
		t.Fatalf("warmup observations leaked into the mean: %g ms", total.MeanMS)
	}
}

// TestHoldoutSplit: the split must partition post-warmup arrivals into
// disjoint, near-equal halves per scenario, keep failures out of the
// calibration samples and drop the warmup window entirely.
func TestHoldoutSplit(t *testing.T) {
	spec := mustCompile(t, api.WorkloadSpec{TotalRPS: 400, DurationS: 2, WarmupS: 0.5, Seed: 3})
	tr := spec.Trace()
	res := &RunResult{Trace: tr, Obs: make([]Observation, len(tr.Arrivals))}
	postWarm := 0
	for i, a := range tr.Arrivals {
		o := Observation{Index: i, Client: a.Client, Scenario: a.Scenario, At: a.At,
			Latency: time.Duration(i%7+1) * 100 * time.Microsecond, OK: true}
		if i%50 == 0 {
			o.OK, o.Shed = false, true
		}
		if a.At >= spec.Warmup {
			postWarm++
		}
		res.Obs[i] = o
	}
	cal, held := holdout(spec, res)

	calN := 0
	for _, xs := range cal {
		calN += len(xs)
	}
	var val []Observation
	shedVal := 0
	for i, o := range res.Obs {
		if !held[i] {
			continue
		}
		if o.At < spec.Warmup {
			t.Fatalf("warmup arrival at %.3fs leaked into the validation half", o.At)
		}
		if o.Shed {
			shedVal++
		}
		val = append(val, o)
	}
	// Every post-warmup arrival lands in exactly one half; the
	// calibration side additionally drops failed requests.
	if calN+len(val) > postWarm || len(val) == 0 || calN == 0 {
		t.Fatalf("split sizes: cal %d + val %d vs %d post-warmup", calN, len(val), postWarm)
	}
	if d := calN + len(val); postWarm-d > postWarm/25 {
		t.Fatalf("split lost %d of %d post-warmup arrivals (only failed calibration samples may drop)", postWarm-d, postWarm)
	}
	// Near-equal halves per scenario stream.
	valPerKey := map[string]int{}
	for _, o := range val {
		valPerKey[spec.Clients[o.Client].Scenarios[o.Scenario].Key]++
	}
	for key, xs := range cal {
		if v := valPerKey[key]; math.Abs(float64(len(xs)-v)) > float64(len(xs)+v)/4+3 {
			t.Errorf("key %s: unbalanced split cal %d / val %d", key[:12], len(xs), v)
		}
	}
	if shedVal == 0 {
		t.Errorf("no shed observations reached the validation half")
	}
	// Determinism: the same inputs split identically.
	cal2, held2 := holdout(spec, res)
	for i := range held {
		if held2[i] != held[i] {
			t.Fatalf("holdout split is not deterministic at observation %d", i)
		}
	}
	for key, xs := range cal {
		if len(cal2[key]) != len(xs) {
			t.Fatalf("holdout calibration half is not deterministic for %s", key[:12])
		}
	}
}

// heldAll scores every observation of res.
func heldAll(res *RunResult) []bool {
	held := make([]bool, len(res.Obs))
	for i := range held {
		held[i] = true
	}
	return held
}

// TestCalibrate: the report names the whole replayed trace, prices the
// whole run's load, and keeps failed requests out of the calibration
// samples. No wall-clock latency is asserted.
func TestCalibrate(t *testing.T) {
	ctx := context.Background()
	spec := mustCompile(t, api.WorkloadSpec{TotalRPS: 300, DurationS: 1, WarmupS: 0.2, Seed: 13})
	tr := spec.Trace()
	post := 0
	for _, a := range tr.Arrivals {
		if a.At >= spec.Warmup {
			post++
		}
	}
	const slots = 64

	t.Run("whole-run", func(t *testing.T) {
		rep, res, err := Calibrate(ctx, spec, stubEval(0, nil), slots, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.TraceHash != tr.HashHex() || rep.Arrivals != len(tr.Arrivals) || len(res.Obs) != len(tr.Arrivals) {
			t.Fatalf("report names %s / %d arrivals (%d observed), the trace is %s / %d",
				rep.TraceHash, rep.Arrivals, len(res.Obs), tr.HashHex(), len(tr.Arrivals))
		}
		want := float64(post) / (spec.Duration - spec.Warmup)
		if o, p := rep.Observed[0].OfferedRPS, rep.Predicted[0].OfferedRPS; o != want || p != want {
			t.Errorf("total offered_rps observed %v, predicted %v, want %v", o, p, want)
		}
		if rep.ThroughputMAPE != 0 {
			t.Errorf("throughput MAPE = %v on a run where every request completes", rep.ThroughputMAPE)
		}
	})

	t.Run("failures", func(t *testing.T) {
		// Fail each scenario's first post-warmup request: the first
		// position of its ABBA sequence, a calibration one.
		first := map[string]int{}
		for _, a := range tr.Arrivals {
			if a.At < spec.Warmup {
				first[spec.Clients[a.Client].Scenarios[a.Scenario].Key]++
			}
		}
		var mu sync.Mutex
		calls := map[string]int{}
		eval := func(ctx context.Context, req api.EvaluateRequest) (*api.EvaluateResponse, error) {
			key := ""
			for _, c := range spec.Clients {
				for _, sc := range c.Scenarios {
					if reflect.DeepEqual(sc.Request, req) {
						key = sc.Key
					}
				}
			}
			mu.Lock()
			n := calls[key]
			calls[key] = n + 1
			mu.Unlock()
			if n == first[key] {
				return nil, errors.New("injected failure")
			}
			return &api.EvaluateResponse{}, nil
		}
		rep, res, err := Calibrate(ctx, spec, eval, slots, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}

		service, held := holdout(spec, res)
		calOK, calFailed, failed := 0, 0, 0
		for i, o := range res.Obs {
			if !o.OK {
				failed++
			}
			if o.At < spec.Warmup || held[i] {
				continue
			}
			if o.OK {
				calOK++
			} else {
				calFailed++
			}
		}
		if failed != len(calls) || calFailed == 0 {
			t.Fatalf("%d failed requests (%d on the calibration side) for %d scenarios", failed, calFailed, len(calls))
		}
		samples := 0
		for _, xs := range service {
			samples += len(xs)
		}
		if samples != calOK {
			t.Errorf("calibration holds %d samples, the calibration side completed %d requests", samples, calOK)
		}
		pred, err := Predict(ctx, spec, tr, Calibration{Service: service, Slots: slots})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rep.Predicted, pred.KPIs) {
			t.Errorf("report's prediction is not the one its calibration half gives:\n%+v\n%+v", rep.Predicted, pred.KPIs)
		}
	})
}
