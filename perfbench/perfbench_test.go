package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestScheduleDeterministic(t *testing.T) {
	sched := func(seed uint64) []time.Duration {
		return poissonSchedule(newRNG(seed, streamSchedule, 1), 1000, 2*time.Second)
	}
	a, b, c := sched(7), sched(7), sched(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different arrival schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same arrival schedule")
	}
	// 2000 expected arrivals; Poisson sd ≈ 45.
	if n := len(a); n < 1800 || n > 2200 {
		t.Fatalf("%d arrivals in 2s at 1000/s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("schedule not sorted at %d", i)
		}
	}
}

func bodies(reqs []request) [][]byte {
	out := make([][]byte, len(reqs))
	for i, r := range reqs {
		out[i] = append([]byte(r.path+" "), r.body...)
	}
	return out
}

func TestBodyStreamsDeterministic(t *testing.T) {
	for _, m := range []mix{hotMix, coldMix} {
		a, b, c := bodies(m.requests(3, 100, 300)), bodies(m.requests(3, 100, 300)), bodies(m.requests(4, 100, 300))
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different bodies", m.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds gave the same bodies", m.name)
		}
	}
	// A cold request depends on its index alone, not on the batch it
	// was drawn in.
	whole := bodies(coldRequests(3, 0, 50))
	if tail := bodies(coldRequests(3, 20, 30)); !reflect.DeepEqual(whole[20:], tail) {
		t.Error("cold request i differs between batches")
	}
}

// Every generated cold body must decode and validate through repro/api
// and solve in process, so a run sends no 400s; keys must be distinct so
// every request misses the cache.
func TestColdBodiesValidAndDistinct(t *testing.T) {
	ctx := context.Background()
	policies := map[string]int{}
	paths := map[string]int{}
	keys := map[string]bool{}
	for _, rq := range coldRequests(11, 0, 3000) {
		d, err := decodeRequest(rq)
		if err != nil {
			t.Fatalf("%s %s: %v", rq.path, rq.body, err)
		}
		if _, err := d.evaluate(ctx); err != nil {
			t.Fatalf("%s %s: evaluate: %v", rq.path, rq.body, err)
		}
		k := d.key()
		if keys[k] {
			t.Fatalf("duplicate scenario key for %s", rq.body)
		}
		keys[k] = true
		paths[rq.path]++
		if d.topology {
			policies[d.top.Policy.String()]++
		}
	}
	if len(paths) != 2 || len(policies) != 3 {
		t.Fatalf("stream covers paths %v and policies %v, want 2 and 3", paths, policies)
	}
}

func TestHotMixShares(t *testing.T) {
	sum := 0.0
	for _, s := range hotScenarios {
		sum += s.weight
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("hot weights sum to %v", sum)
	}
	counts := map[string]int{}
	const n = 70000
	for _, rq := range hotRequests(5, 0, n) {
		counts[string(rq.body)]++
	}
	for i, s := range hotScenarios {
		got := float64(counts[string(hotBodies[i].body)]) / n
		if math.Abs(got-s.weight) > 0.01 {
			t.Errorf("scenario %d drawn %.3f of the time, want %.3f", i, got, s.weight)
		}
	}
}

// fakeClock jumps straight to each wake-up time, overshooting by a set
// amount on chosen ones.
type fakeClock struct {
	now       time.Duration
	overshoot map[time.Duration]time.Duration
	sleeps    int
}

func (c *fakeClock) Now() time.Duration { return c.now }

func (c *fakeClock) SleepUntil(t time.Duration) {
	c.sleeps++
	if t > c.now {
		c.now = t + c.overshoot[t]
	}
}

func TestPacerFakeClock(t *testing.T) {
	ms := time.Millisecond
	sched := []time.Duration{0, 1 * ms, 2 * ms, 3 * ms, 10 * ms, 11 * ms}
	run := func(clk *fakeClock) ([]int, []time.Duration) {
		var order []int
		var lates []time.Duration
		pace(context.Background(), clk, sched, func(i int, late time.Duration) {
			order = append(order, i)
			lates = append(lates, late)
		})
		return order, lates
	}

	clk := &fakeClock{}
	order, lates := run(clk)
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("released out of order: %v", order)
	}
	for i, l := range lates {
		if l != 0 {
			t.Fatalf("arrival %d late by %v on a perfect clock", i, l)
		}
	}

	// A 2.5 ms stall waking for arrival 1 makes 1 late by 2.5 ms and 2
	// and 3, already due by then, late by 1.5 and 0.5 ms, released without
	// sleeping; arrival 4 is on time again.
	clk = &fakeClock{overshoot: map[time.Duration]time.Duration{1 * ms: 2500 * time.Microsecond}}
	_, lates = run(clk)
	want := []time.Duration{0, 2500 * time.Microsecond, 1500 * time.Microsecond, 500 * time.Microsecond, 0, 0}
	if !reflect.DeepEqual(lates, want) {
		t.Fatalf("lateness %v, want %v", lates, want)
	}
	if clk.sleeps != 3 {
		t.Fatalf("%d sleeps, want 3 (arrivals 1, 4 and 5)", clk.sleeps)
	}

	// A cancelled context releases nothing.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n := 0
	pace(ctx, &fakeClock{}, sched, func(int, time.Duration) { n++ })
	if n != 0 {
		t.Fatalf("released %d arrivals after cancel", n)
	}
}

func TestBacklogGrows(t *testing.T) {
	for _, c := range []struct {
		offered, completed int
		want               bool
	}{
		{1000, 1000, false},
		{1000, 960, false}, // within 5%
		{1000, 940, true},
		{40, 36, false}, // within the 5-request floor
		{40, 30, true},
	} {
		if got := backlogGrows(c.offered, c.completed); got != c.want {
			t.Errorf("backlogGrows(%d, %d) = %v, want %v", c.offered, c.completed, got, c.want)
		}
	}
}

func runs(vals ...float64) map[string]float64 {
	out := map[string]float64{}
	for i, v := range vals {
		out[string(rune('a'+i))] = v
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	parent := runs(100, 101, 99, 100.5, 99.5, 100, 100.2, 99.8, 100.1, 99.9)
	for _, c := range []struct {
		name         string
		a, b         map[string]float64
		higherBetter bool
		bound        float64
		want         string
	}{
		{"same", parent, runs(100.1, 100.9, 99.2, 100.4, 99.6, 100.1, 100.1, 99.9, 100, 100), false, 0.05, noWorse},
		{"faster", parent, runs(90, 91, 89, 90.5, 89.5, 90, 90.2, 89.8, 90.1, 89.9), false, 0.05, improved},
		{"slower", parent, runs(110, 111, 109, 110.5, 109.5, 110, 110.2, 109.8, 110.1, 109.9), false, 0.05, regressed},
		{"slower within bound", parent, runs(103, 104, 102, 103.5, 102.5, 103, 103.2, 102.8, 103.1, 102.9), false, 0.05, noWorse},
		{"throughput up", parent, runs(110, 111, 109, 110.5, 109.5, 110, 110.2, 109.8, 110.1, 109.9), true, 0.05, improved},
		{"throughput down", parent, runs(90, 91, 89, 90.5, 89.5, 90, 90.2, 89.8, 90.1, 89.9), true, 0.05, regressed},
		{"noisy", runs(80, 120, 90, 110, 100, 70, 130, 95, 105, 100), runs(85, 118, 92, 108, 99, 75, 125, 97, 104, 101), false, 0.05, unresolved},
		{"noisy but every run faster", runs(80, 120, 90, 110, 100, 85, 115, 95, 105, 100), runs(40, 60, 45, 55, 50, 42, 58, 47, 52, 50), false, 0.05, improved},
		// Wins 9 of 10 pairs but by less than the parent's spread.
		{"small gain", parent, runs(99.9, 100.9, 98.9, 100.4, 99.4, 99.9, 100.1, 99.7, 100, 100.5), false, 0.05, noWorse},
	} {
		if got := compareMetric(c.a, c.b, c.higherBetter, c.bound); got.verdict != c.want {
			t.Errorf("%s: verdict %q, want %q (%+v)", c.name, got.verdict, c.want, got)
		}
	}
}

func TestWriteComparison(t *testing.T) {
	var spec benchSpec
	if err := json.Unmarshal([]byte(`{"end_to_end":[{"name":"wall_s","unit":"s","better":"lower","bound":0.1}]}`), &spec); err != nil {
		t.Fatal(err)
	}
	set := func(v float64) resultSet {
		rs := resultSet{"w": {}}
		for i := 0; i < 5; i++ {
			rs["w"][string(rune('0'+i))] = result{Correct: true, Metrics: map[string]metricValue{"wall_s": {Value: v + float64(i)/100, Unit: "s"}}}
		}
		return rs
	}
	var buf bytes.Buffer
	if writeComparison(&buf, spec, set(1), set(1)) {
		t.Fatalf("identical sets regressed:\n%s", buf.String())
	}
	buf.Reset()
	if !writeComparison(&buf, spec, set(1), set(2)) || !strings.Contains(buf.String(), regressed) {
		t.Fatalf("doubled wall time not a regression:\n%s", buf.String())
	}
}

// The metric tables the benchmark prints must be exactly those
// BENCHMARK.json declares, in order, with the same units.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in code, %d in BENCHMARK.json", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: code %v, BENCHMARK.json %v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", endToEnd, spec.EndToEnd)
	check("per_layer", perLayer, spec.PerLayer)
	for _, w := range spec.Workloads {
		if _, ok := workloadTable[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the code", w.Name)
		}
	}
}

func TestFormatResult(t *testing.T) {
	r := newReport()
	r.count(10, 0)
	for _, m := range endToEnd {
		r.e2e[m.name] = 1.5
	}
	line, err := formatResult(r, false)
	if err != nil {
		t.Fatal(err)
	}
	var res result
	if err := json.Unmarshal(line, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted != 10 || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("bad result %s", line)
	}
	traced, err := formatResult(r, true)
	if err != nil {
		t.Fatal(err)
	}
	var tres result
	if err := json.Unmarshal(traced, &tres); err != nil || len(tres.Metrics) != len(perLayer) {
		t.Fatalf("traced result %s: %v", traced, err)
	}
	delete(r.e2e, "wall_s")
	if _, err := formatResult(r, false); err == nil {
		t.Fatal("missing end-to-end metric not reported")
	}
	r.count(0, 1)
	r.e2e["wall_s"] = 1
	if line, _ := formatResult(r, false); !bytes.Contains(line, []byte(`"correct":false`)) {
		t.Fatalf("a failed op left the run correct: %s", line)
	}
}

func TestGroupTop(t *testing.T) {
	top := `File: repro
Type: cpu
Showing nodes accounting for 47510ms, 100% of 47510ms total
      flat  flat%   sum%        cum   cum%
    9390ms 19.76% 19.76%    10120ms 21.30%  repro/internal/cache.(*level).find (inline)
    4200ms  8.84% 28.60%     4630ms  9.75%  repro/internal/memsys.(*Simulator).Access
     610ms  1.28% 29.88%      610ms  1.28%  runtime.asyncPreempt
     100ms  0.21% 30.09%      100ms  0.21%  internal/runtime/maps.(*Map).getWithKey
      50ms  0.11% 30.20%     3000ms  6.31%  repro/internal/solve.Run
      20ms  0.04% 30.24%       20ms  0.04%  encoding/json.Marshal
`
	got, err := groupTop([]byte(top))
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]float64{
		"cache.self_s": 9.39, "memsys.self_s": 4.2, "runtime.self_s": 0.71, "other.self_s": 0.07, "sim.self_s": 0,
	} {
		if math.Abs(got[k]-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, got[k], want)
		}
	}
	if _, err := groupTop([]byte("nothing here")); err == nil {
		t.Error("empty profile not reported")
	}
}

func TestHistogramQuantile(t *testing.T) {
	s := scrape{
		`memmodeld_request_latency_seconds_bucket{endpoint="evaluate",le="0.0005"}`: 50,
		`memmodeld_request_latency_seconds_bucket{endpoint="evaluate",le="0.001"}`:  90,
		`memmodeld_request_latency_seconds_bucket{endpoint="evaluate",le="+Inf"}`:   100,
		`memmodeld_request_latency_seconds_bucket{endpoint="topology",le="0.0005"}`: 50,
		`memmodeld_request_latency_seconds_bucket{endpoint="topology",le="0.001"}`:  90,
		`memmodeld_request_latency_seconds_bucket{endpoint="topology",le="+Inf"}`:   100,
	}
	if got := s.quantile([]string{"evaluate", "topology"}, 0.5); math.Abs(got-0.0005) > 1e-12 {
		t.Errorf("p50 = %v, want 0.0005", got)
	}
	if got := s.quantile([]string{"evaluate"}, 0.7); math.Abs(got-0.00075) > 1e-12 {
		t.Errorf("p70 = %v, want 0.00075 (interpolated)", got)
	}
	if got := s.quantile([]string{"evaluate"}, 0.99); got != 0.001 {
		t.Errorf("p99 in the +Inf bucket = %v, want the last finite bound", got)
	}
	if got := s.quantile([]string{"cluster"}, 0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v", got)
	}
}
