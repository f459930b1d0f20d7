package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/api"
	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workgen"
)

var bg = context.Background()

// defaultSpec is the reference scenario the tests drive: the 8-host
// heterogeneous fleet under the three Table 6 classes.
func defaultSpec(p Policy) Spec {
	return Spec{
		Hosts:    DefaultFleet(),
		Tenants:  DefaultTenants(),
		Policy:   p,
		Duration: 4 * units.Second,
		Warmup:   units.Second / 2,
		Seed:     42,
	}
}

func TestDefaultFleetShape(t *testing.T) {
	hosts := DefaultFleet()
	if len(hosts) != 8 {
		t.Fatalf("default fleet has %d hosts, want 8", len(hosts))
	}
	kinds := map[string]int{}
	for _, h := range hosts {
		if err := h.Topology.Validate(); err != nil {
			t.Errorf("%s: %v", h.Name, err)
		}
		kinds[h.Topology.Name]++
	}
	if kinds["dram"] != 3 || kinds["hbm"] != 3 || kinds["cxl"] != 2 {
		t.Errorf("fleet mix = %v, want 3 dram / 3 hbm / 2 cxl", kinds)
	}
	tenants := DefaultTenants()
	if len(tenants) != 3 {
		t.Fatalf("default tenants = %d, want 3", len(tenants))
	}
	for _, ten := range tenants {
		if err := ten.Params.Validate(); err != nil {
			t.Errorf("%s: %v", ten.Name, err)
		}
	}
}

func TestValidate(t *testing.T) {
	type tc struct {
		name   string
		mutate func(*Spec)
		want   error
	}
	cases := []tc{
		{"no hosts", func(s *Spec) { s.Hosts = nil }, model.ErrInvalidPlatform},
		{"no tenants", func(s *Spec) { s.Tenants = nil }, model.ErrInvalidParams},
		{"zero duration", func(s *Spec) { s.Duration = 0 }, model.ErrInvalidPlatform},
		{"warmup past horizon", func(s *Spec) { s.Warmup = s.Duration }, model.ErrInvalidPlatform},
		{"bad policy", func(s *Spec) { s.Policy = Policy(99) }, model.ErrInvalidPlatform},
		{"negative slots", func(s *Spec) { s.Hosts[0].Slots = -1 }, model.ErrInvalidPlatform},
		{"zero rate", func(s *Spec) { s.Tenants[0].Rate = 0 }, model.ErrInvalidParams},
		{"zero work", func(s *Spec) { s.Tenants[0].Work = 0 }, model.ErrInvalidParams},
		{"broken topology", func(s *Spec) { s.Hosts[0].Topology.Tiers = nil }, model.ErrInvalidPlatform},
	}
	// Non-finite values: before they were rejected, NaN rate or
	// duration panicked in Simulate and +Inf work ran silently.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cases = append(cases,
			tc{fmt.Sprintf("duration %g", v), func(s *Spec) { s.Duration = units.Duration(v) }, model.ErrInvalidPlatform},
			tc{fmt.Sprintf("warmup %g", v), func(s *Spec) { s.Warmup = units.Duration(v) }, model.ErrInvalidPlatform},
			tc{fmt.Sprintf("rate %g", v), func(s *Spec) { s.Tenants[0].Rate = v }, model.ErrInvalidParams},
			tc{fmt.Sprintf("work %g", v), func(s *Spec) { s.Tenants[1].Work = v }, model.ErrInvalidParams},
			tc{fmt.Sprintf("admit rate %g", v), func(s *Spec) { s.Hosts[0].AdmitRate = v }, model.ErrInvalidPlatform},
			tc{fmt.Sprintf("admit burst %g", v), func(s *Spec) { s.Hosts[2].AdmitRate, s.Hosts[2].AdmitBurst = 10, v }, model.ErrInvalidPlatform},
		)
	}
	for _, tc := range cases {
		spec := defaultSpec(RoundRobin)
		tc.mutate(&spec)
		if err := spec.Validate(); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		// Simulate must refuse the spec with the same typed error, not
		// panic or run on a poisoned clock.
		if _, err := Simulate(bg, spec); !errors.Is(err, tc.want) {
			t.Errorf("%s: Simulate err = %v, want %v", tc.name, err, tc.want)
		}
	}
	if err := defaultSpec(WeightedScore).Validate(); err != nil {
		t.Errorf("default spec invalid: %v", err)
	}
}

func TestParsePolicy(t *testing.T) {
	for _, p := range Policies() {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("striped"); !errors.Is(err, model.ErrInvalidPlatform) {
		t.Errorf("unknown policy err = %v, want ErrInvalidPlatform", err)
	}
}

// TestConservation checks the bookkeeping identity on every policy:
// every measured arrival is either completed or shed, and host counters
// agree with the fleet totals.
func TestConservation(t *testing.T) {
	for _, p := range Policies() {
		res, err := Simulate(bg, defaultSpec(p))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		var hostComp int64
		for _, h := range res.Hosts {
			hostComp += h.Completions
		}
		var offered, completed, shed int64
		for _, tm := range res.Tenants {
			offered += tm.Offered
			completed += tm.Completed
			shed += tm.Shed
			if tm.Completed+tm.Shed != tm.Offered {
				t.Errorf("%s/%s: %d completed + %d shed != %d offered",
					p, tm.Name, tm.Completed, tm.Shed, tm.Offered)
			}
			if tm.P50 > tm.P95 || tm.P95 > tm.P99 {
				t.Errorf("%s/%s: percentiles not monotone: %v %v %v", p, tm.Name, tm.P50, tm.P95, tm.P99)
			}
			// 1e-9 relative slack: the mean is a float sum, so a tenant
			// whose every sample equals MinService can round a ULP below it.
			if tm.Completed > 0 && float64(tm.Mean) < float64(tm.MinService)*(1-1e-9) {
				t.Errorf("%s/%s: mean latency %v below unloaded service %v", p, tm.Name, tm.Mean, tm.MinService)
			}
		}
		// Host completions also count warmup requests, so they can only
		// exceed the measured total.
		if hostComp < completed {
			t.Errorf("%s: host completions %d < measured completions %d", p, hostComp, completed)
		}
		if res.Fairness <= 0 || res.Fairness > 1 {
			t.Errorf("%s: fairness %v out of (0,1]", p, res.Fairness)
		}
		if res.Events <= 0 {
			t.Errorf("%s: no events processed", p)
		}
	}
}

// TestRoundRobinSpreads pins the round-robin invariant: every host
// serves work, split evenly to within one request per tenant cycle.
func TestRoundRobinSpreads(t *testing.T) {
	res, err := Simulate(bg, defaultSpec(RoundRobin))
	if err != nil {
		t.Fatal(err)
	}
	min, max := res.Hosts[0].Completions, res.Hosts[0].Completions
	for _, h := range res.Hosts {
		if h.Completions < min {
			min = h.Completions
		}
		if h.Completions > max {
			max = h.Completions
		}
	}
	if min == 0 || max-min > int64(len(res.Tenants)) {
		t.Errorf("round-robin spread %d..%d too uneven", min, max)
	}
}

// TestWeightedBeatsRoundRobin is the headline fleet result: the
// model-aware policy keeps the bandwidth-hungry HPC tenant off the
// bandwidth-starved hosts, collapsing its tail latency, and levels the
// delivered-performance shares across tenants.
func TestWeightedBeatsRoundRobin(t *testing.T) {
	rr, err := Simulate(bg, defaultSpec(RoundRobin))
	if err != nil {
		t.Fatal(err)
	}
	ws, err := Simulate(bg, defaultSpec(WeightedScore))
	if err != nil {
		t.Fatal(err)
	}
	byName := func(r Result, name string) TenantMetrics {
		for _, tm := range r.Tenants {
			if tm.Name == name {
				return tm
			}
		}
		t.Fatalf("tenant %s missing", name)
		return TenantMetrics{}
	}
	hpcRR, hpcWS := byName(rr, "HPC"), byName(ws, "HPC")
	if hpcWS.P99 >= hpcRR.P99 {
		t.Errorf("HPC p99: weighted %v !< round-robin %v", hpcWS.P99, hpcRR.P99)
	}
	if ws.Fairness <= rr.Fairness {
		t.Errorf("fairness: weighted %v !> round-robin %v", ws.Fairness, rr.Fairness)
	}
}

// TestAdmissionSheds arms the per-host token buckets below the offered
// load and checks shedding engages, scales with load, and is counted on
// both tenant and host sides.
func TestAdmissionSheds(t *testing.T) {
	withAdmission := func(scale float64) Spec {
		spec := defaultSpec(WeightedScore)
		for i := range spec.Hosts {
			spec.Hosts[i].AdmitRate = 120
			spec.Hosts[i].AdmitBurst = 30
		}
		for i := range spec.Tenants {
			spec.Tenants[i].Rate *= scale
		}
		return spec
	}
	low, err := Simulate(bg, withAdmission(1))
	if err != nil {
		t.Fatal(err)
	}
	high, err := Simulate(bg, withAdmission(1.5))
	if err != nil {
		t.Fatal(err)
	}
	shedRate := func(r Result) float64 {
		var offered, shed int64
		for _, tm := range r.Tenants {
			offered += tm.Offered
			shed += tm.Shed
		}
		return float64(shed) / float64(offered)
	}
	lowRate, highRate := shedRate(low), shedRate(high)
	if lowRate <= 0 {
		t.Fatal("undersized admission quotas shed nothing")
	}
	if highRate <= lowRate {
		t.Errorf("shed rate did not grow with load: %.3f at 1x vs %.3f at 1.5x", lowRate, highRate)
	}
	var hostShed int64
	for _, h := range high.Hosts {
		hostShed += h.Shed
	}
	if hostShed == 0 {
		t.Error("host shed counters empty despite tenant sheds")
	}
}

// TestNoAdmissionNoShed: with admission disabled everything offered
// completes (queues are unbounded and drain past the horizon).
func TestNoAdmissionNoShed(t *testing.T) {
	res, err := Simulate(bg, defaultSpec(LeastLoaded))
	if err != nil {
		t.Fatal(err)
	}
	for _, tm := range res.Tenants {
		if tm.Shed != 0 || tm.Completed != tm.Offered {
			t.Errorf("%s: shed=%d completed=%d offered=%d, want full completion",
				tm.Name, tm.Shed, tm.Completed, tm.Offered)
		}
	}
}

// TestOfferedMatchesWorkgenStream pins the one-generator rule: with no
// warmup and no admission, every tenant offers exactly the arrivals
// workgen compiles for a Poisson client at the tenant's rate, with one
// scenario per client.
func TestOfferedMatchesWorkgenStream(t *testing.T) {
	for _, seed := range []uint64{1, 42, 7777} {
		spec := defaultSpec(WeightedScore)
		spec.Seed, spec.Warmup = seed, 0
		ws := api.WorkloadSpec{DurationS: spec.Duration.Seconds(), WarmupS: 1, Seed: seed}
		for _, ten := range spec.Tenants {
			ws.TotalRPS += ten.Rate
			ws.Clients = append(ws.Clients, api.WorkloadClientSpec{
				Name: ten.Name, Share: ten.Rate, Arrival: api.ArrivalSpec{Process: "poisson"},
				Scenarios: []api.WorkloadScenarioSpec{{Params: api.ParamsSpec{Class: "hpc"}}},
			})
		}
		wspec, err := workgen.Compile(ws)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range wspec.Clients {
			if c.Rate != spec.Tenants[i].Rate {
				t.Fatalf("client %d rate %v, tenant rate %v", i, c.Rate, spec.Tenants[i].Rate)
			}
		}
		want := make([]int64, len(spec.Tenants))
		for _, a := range wspec.Trace().Arrivals {
			want[a.Client]++
		}
		res, err := Simulate(bg, spec)
		if err != nil {
			t.Fatal(err)
		}
		for i, tm := range res.Tenants {
			if tm.Offered != want[i] {
				t.Errorf("seed %d %s: offered %d, workgen stream holds %d", seed, tm.Name, tm.Offered, want[i])
			}
		}
	}
}

// halfSecond is a deterministic arrival process: one request every 0.5 s.
type halfSecond struct{}

func (halfSecond) Name() string            { return "half-second" }
func (halfSecond) Next(*trace.RNG) float64 { return 0.5 }
func (halfSecond) Mean() float64           { return 0.5 }
func (halfSecond) CDF(x float64) float64 {
	if x < 0.5 {
		return 0
	}
	return 1
}

// TestCompletionBeforeArrivalOnTie pins the merge's tie rule: a
// completion and an arrival at the same instant are handled completion
// first, so the arriving request takes the freed slot instead of
// queueing behind it.
func TestCompletionBeforeArrivalOnTie(t *testing.T) {
	spec := defaultSpec(RoundRobin)
	spec.Hosts, spec.Tenants = spec.Hosts[:1], spec.Tenants[:1]
	spec.Hosts[0].Slots = 1
	spec.Duration, spec.Warmup = 2*units.Second, 0
	pr, err := newPricing(bg, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Arrivals at 0.5, 1 and 1.5 s, each served in exactly 0.5 s, so
	// every completion lands on the next arrival's timestamp.
	pr.arrivals.Clients[0].Process = halfSecond{}
	pr.prices[0][0].service = units.Second / 2
	f := newFleet(spec, pr)
	if err := runFleets(bg, pr.arrivals.Stream(), []*fleet{f}); err != nil {
		t.Fatal(err)
	}
	res := f.result()
	if tm, hm := res.Tenants[0], res.Hosts[0]; tm.Completed != 3 || hm.PeakQueue != 0 || tm.P99 != units.Second/2 {
		t.Errorf("completed %d, peak queue %d, p99 %v; want 3, 0, 0.5 s (completion before arrival)",
			tm.Completed, hm.PeakQueue, tm.P99)
	}
}

func TestSimulateCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(bg)
	cancel()
	if _, err := Simulate(ctx, defaultSpec(RoundRobin)); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestEventBudget(t *testing.T) {
	spec := defaultSpec(RoundRobin)
	spec.MaxEvents = 100
	_, err := Simulate(bg, spec)
	if !errors.Is(err, model.ErrInvalidPlatform) || !strings.Contains(err.Error(), "event budget") {
		t.Errorf("err = %v, want event-budget error", err)
	}
}

func TestCanonicalSpec(t *testing.T) {
	a, b := defaultSpec(WeightedScore), defaultSpec(WeightedScore)
	if CanonicalSpec(a) != CanonicalSpec(b) || Key(a) != Key(b) {
		t.Error("identical specs canonicalize differently")
	}
	// Names label telemetry, not the problem: they must not change the key.
	b.Hosts[0].Name = "renamed"
	b.Tenants[0].Name = "renamed"
	if Key(a) != Key(b) {
		t.Error("renaming hosts/tenants changed the key")
	}
	// Anything behavioral must change it.
	for name, mutate := range map[string]func(*Spec){
		"policy":   func(s *Spec) { s.Policy = RoundRobin },
		"seed":     func(s *Spec) { s.Seed++ },
		"duration": func(s *Spec) { s.Duration *= 2 },
		"rate":     func(s *Spec) { s.Tenants[1].Rate++ },
		"admit":    func(s *Spec) { s.Hosts[2].AdmitRate = 10 },
		"tier":     func(s *Spec) { s.Hosts[0].Topology.Tiers[0].PeakBW *= 2 },
	} {
		c := defaultSpec(WeightedScore)
		mutate(&c)
		if Key(a) == Key(c) {
			t.Errorf("%s mutation did not change the key", name)
		}
	}
}

func TestJainFairness(t *testing.T) {
	if f := JainFairness([]float64{1, 1, 1}); f != 1 {
		t.Errorf("equal shares: %v, want 1", f)
	}
	if f := JainFairness([]float64{1, 0, 0, 0}); f != 0.25 {
		t.Errorf("single taker: %v, want 0.25", f)
	}
	if f := JainFairness(nil); f != 0 {
		t.Errorf("empty: %v, want 0", f)
	}
	if f := JainFairness([]float64{0, 0}); f != 1 {
		t.Errorf("all-zero: %v, want 1", f)
	}
}

// TestClusterSimulateAllocs gates the allocations of one Simulate of
// the reference fleet under the weighted policy, the spec
// BenchmarkSimulate times. It measures 106 allocs/op, the same under
// the race detector: 82 in the pricing pass (3 for each of its 24
// (tenant, host) solves, plus the price tables), the rest the per-run
// state sized once from the event budget. The ceiling of 120 leaves
// ~13% over that.
func TestClusterSimulateAllocs(t *testing.T) {
	const ceiling = 120
	spec := defaultSpec(WeightedScore)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Simulate(bg, spec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Errorf("Simulate: %.0f allocs/op, ceiling %d", allocs, ceiling)
	}
	t.Logf("Simulate: %.0f allocs/op (ceiling %d)", allocs, ceiling)
}

// BenchmarkSimulate runs the reference 8-host fleet under the
// model-aware weighted policy: the (tenant, host) pricing pass plus
// the discrete-event loop end to end.
func BenchmarkSimulate(b *testing.B) {
	spec := defaultSpec(WeightedScore)
	var events int64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Simulate(bg, spec)
		if err != nil {
			b.Fatal(err)
		}
		events = res.Events
	}
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkSimulatePolicies runs the shape of one default fleet
// request: the reference fleet under all three policies, on a distinct
// seed per iteration. events/s counts every policy's events.
func BenchmarkSimulatePolicies(b *testing.B) {
	spec := defaultSpec(WeightedScore)
	var events int64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spec.Seed = uint64(i + 1)
		res, err := SimulatePolicies(bg, spec, Policies())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res {
			events += r.Events
		}
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}
