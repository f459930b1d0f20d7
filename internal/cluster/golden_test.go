package cluster

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/model"
)

// goldenRender prints every field of a Result, floats in exact
// hexadecimal, one line for the run, each tenant and each host.
func goldenRender(r Result) string {
	hexf := model.HexFloat
	var b strings.Builder
	fmt.Fprintf(&b, "%s seed=%d events=%d hash=%016x fair=%s\n",
		r.Policy, r.Seed, r.Events, r.EventHash, hexf(r.Fairness))
	for _, tm := range r.Tenants {
		fmt.Fprintf(&b, "t %s off=%d done=%d shed=%d orps=%s grps=%s sr=%s p50=%s p95=%s p99=%s mean=%s min=%s\n",
			tm.Name, tm.Offered, tm.Completed, tm.Shed, hexf(tm.OfferedRPS), hexf(tm.GoodputRPS),
			hexf(tm.ShedRate), hexf(float64(tm.P50)), hexf(float64(tm.P95)), hexf(float64(tm.P99)),
			hexf(float64(tm.Mean)), hexf(float64(tm.MinService)))
	}
	for _, hm := range r.Hosts {
		fmt.Fprintf(&b, "h %s done=%d shed=%d util=%s peakq=%d\n",
			hm.Name, hm.Completions, hm.Shed, hexf(hm.Utilization), hm.PeakQueue)
	}
	return b.String()
}

// goldenShedSpec is the default fleet under per-host token buckets
// sized below 1.5× the default load, so every host sheds.
func goldenShedSpec() Spec {
	spec := defaultSpec(WeightedScore)
	for i := range spec.Hosts {
		spec.Hosts[i].AdmitRate = 120
		spec.Hosts[i].AdmitBurst = 30
	}
	for i := range spec.Tenants {
		spec.Tenants[i].Rate *= 1.5
	}
	return spec
}

// goldenQueueSpec caps every host at six slots, below the default
// load's concurrency, so requests wait in the host FIFOs.
func goldenQueueSpec(p Policy) Spec {
	spec := defaultSpec(p)
	for i := range spec.Hosts {
		spec.Hosts[i].Slots = 6
	}
	return spec
}

// TestResultGolden pins the full Result of the default fleet under
// every policy on two seeds, plus a shedding spec and two queueing
// specs, bit for bit. Unlike TestDeterminism, which only compares a run
// with itself, this catches a change that reorders events or
// reassociates a float sum consistently across runs.
func TestResultGolden(t *testing.T) {
	type tc struct {
		name string
		spec Spec
	}
	var cases []tc
	for _, seed := range []uint64{1, 42} {
		for _, p := range Policies() {
			spec := defaultSpec(p)
			spec.Seed = seed
			cases = append(cases, tc{fmt.Sprintf("%s/seed%d", p, seed), spec})
		}
	}
	cases = append(cases, tc{"weighted/shed", goldenShedSpec()})
	for _, p := range []Policy{RoundRobin, LeastLoaded} {
		cases = append(cases, tc{p.String() + "/queue", goldenQueueSpec(p)})
	}

	for _, c := range cases {
		res, err := Simulate(bg, c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want, ok := goldenResults[c.name]
		if !ok {
			t.Errorf("%s: no golden; got:\n%s", c.name, goldenRender(res))
			continue
		}
		if got := goldenRender(res); got != want {
			t.Errorf("%s: result drifted\ngot:\n%s\nwant:\n%s", c.name, got, want)
		}
	}
}

// TestCanonicalSpecsGolden pins the spec keys the serving cache is
// keyed by: CanonicalSpecs renders the policy-independent part once,
// and must give exactly the strings CanonicalSpec gives per policy.
func TestCanonicalSpecsGolden(t *testing.T) {
	want := map[Policy]string{
		RoundRobin:    "24bc12d4d5685bb3",
		LeastLoaded:   "e85366087d56e7f9",
		WeightedScore: "f9d4e44b658080ed",
	}
	spec := defaultSpec(RoundRobin)
	all := CanonicalSpecs(spec, Policies())
	for i, p := range Policies() {
		sp := defaultSpec(p)
		if got := Key(sp); got != want[p] {
			t.Errorf("%s: Key = %s, want %s", p, got, want[p])
		}
		if one := CanonicalSpec(sp); all[i] != one {
			t.Errorf("%s: CanonicalSpecs differs from CanonicalSpec:\n%s\n%s", p, all[i], one)
		}
	}
	if got := model.ScenarioKey(append([]string{"cluster"}, all...)...); got != "3f6203e63884b297" {
		t.Errorf("three-policy key = %s, want 3f6203e63884b297", got)
	}
}

// goldenResults was captured with arrivals replayed from workgen's
// Stream.
var goldenResults = map[string]string{
	"round-robin/seed1": `round-robin seed=1 events=11942 hash=9c9bb9c07a18bc81 fair=0x1.f536a593cacb6p-01
t Enterprise off=2029 done=2029 shed=0 orps=0x1.21db6db6db6dbp+09 grps=0x1.21db6db6db6dbp+09 sr=0x0p+00 p50=0x1.311c76ef53c6p+25 p95=0x1.5747b4de02c4p+25 p99=0x1.5747b4de02c4p+25 mean=0x1.39f295d264f5ap+25 min=0x1.2f3e8ace65612p+25
t Big Data off=1752 done=1752 shed=0 orps=0x1.f492492492492p+08 grps=0x1.f492492492492p+08 sr=0x0p+00 p50=0x1.5e9a12f495a8p+24 p95=0x1.7b93228b4618p+24 p99=0x1.7b93228b4618p+24 mean=0x1.638cf94518133p+24 min=0x1.587bc4117bd74p+24
t HPC off=1420 done=1420 shed=0 orps=0x1.95b6db6db6db7p+08 grps=0x1.95b6db6db6db7p+08 sr=0x0p+00 p50=0x1.f64d5e52d8a8p+24 p95=0x1.3cb9a9a79408p+25 p99=0x1.3cb9a9a79408p+25 mean=0x1.eabc4a21db195p+24 min=0x1.54e3206da81c4p+24
h dram-0 done=747 shed=0 util=0x1.993b8edddf84fp-02 peakq=0
h dram-1 done=747 shed=0 util=0x1.993b8edddf84fp-02 peakq=0
h dram-2 done=747 shed=0 util=0x1.993b8edddf84fp-02 peakq=0
h hbm-0 done=747 shed=0 util=0x1.589c624daf4b1p-02 peakq=0
h hbm-1 done=747 shed=0 util=0x1.589c624daf4b1p-02 peakq=0
h hbm-2 done=747 shed=0 util=0x1.589c624daf4b1p-02 peakq=0
h cxl-0 done=745 shed=0 util=0x1.9b15536e4102dp-02 peakq=0
h cxl-1 done=744 shed=0 util=0x1.9a5f1032a8p-02 peakq=0
`,
	"least-loaded/seed1": `least-loaded seed=1 events=11942 hash=7a59fa85b171deaf fair=0x1.f5e2c11fed1cp-01
t Enterprise off=2029 done=2029 shed=0 orps=0x1.21db6db6db6dbp+09 grps=0x1.21db6db6db6dbp+09 sr=0x0p+00 p50=0x1.311c76ef53c6p+25 p95=0x1.5747b4de02c4p+25 p99=0x1.5747b4de02c4p+25 mean=0x1.3876caf028cc5p+25 min=0x1.2f3e8ace65612p+25
t Big Data off=1752 done=1752 shed=0 orps=0x1.f492492492492p+08 grps=0x1.f492492492492p+08 sr=0x0p+00 p50=0x1.5e9a12f495a8p+24 p95=0x1.7b93228b4618p+24 p99=0x1.7b93228b4618p+24 mean=0x1.62d425b9688cdp+24 min=0x1.587bc4117bd74p+24
t HPC off=1420 done=1420 shed=0 orps=0x1.95b6db6db6db7p+08 grps=0x1.95b6db6db6db7p+08 sr=0x0p+00 p50=0x1.f64d5e52d8a8p+24 p95=0x1.3cb9a9a79408p+25 p99=0x1.3cb9a9a79408p+25 mean=0x1.e3829d040fe7fp+24 min=0x1.54e3206da81c4p+24
h dram-0 done=752 shed=0 util=0x1.9bbcde032a484p-02 peakq=0
h dram-1 done=739 shed=0 util=0x1.93b040d5af844p-02 peakq=0
h dram-2 done=723 shed=0 util=0x1.8bc7fe2d7aaddp-02 peakq=0
h hbm-0 done=830 shed=0 util=0x1.7f9e153750eap-02 peakq=0
h hbm-1 done=809 shed=0 util=0x1.779b194df8539p-02 peakq=0
h hbm-2 done=800 shed=0 util=0x1.70bf52b5ca3a3p-02 peakq=0
h cxl-0 done=670 shed=0 util=0x1.6ae896fd83242p-02 peakq=0
h cxl-1 done=648 shed=0 util=0x1.6726a8e4e3216p-02 peakq=0
`,
	"weighted/seed1": `weighted seed=1 events=11942 hash=8fd14bd8dba9dc60 fair=0x1.ffce2c4dd1876p-01
t Enterprise off=2029 done=2029 shed=0 orps=0x1.21db6db6db6dbp+09 grps=0x1.21db6db6db6dbp+09 sr=0x0p+00 p50=0x1.311c76ef53c6p+25 p95=0x1.5747b4de02c4p+25 p99=0x1.5747b4de02c4p+25 mean=0x1.342c8e0e42954p+25 min=0x1.2f3e8ace65612p+25
t Big Data off=1752 done=1752 shed=0 orps=0x1.f492492492492p+08 grps=0x1.f492492492492p+08 sr=0x0p+00 p50=0x1.5e9a12f495acp+24 p95=0x1.7b93228b4618p+24 p99=0x1.7b93228b4618p+24 mean=0x1.691ea0f0d94d8p+24 min=0x1.587bc4117bd74p+24
t HPC off=1420 done=1420 shed=0 orps=0x1.95b6db6db6db7p+08 grps=0x1.95b6db6db6db7p+08 sr=0x0p+00 p50=0x1.54e3206da82p+24 p95=0x1.54e3206da82p+24 p99=0x1.54e3206da82p+24 mean=0x1.54e3206da8112p+24 min=0x1.54e3206da81c4p+24
h dram-0 done=665 shed=0 util=0x1.751523715711ap-02 peakq=0
h dram-1 done=665 shed=0 util=0x1.69c2d414fd20dp-02 peakq=0
h dram-2 done=658 shed=0 util=0x1.5e96429822e13p-02 peakq=0
h hbm-0 done=1047 shed=0 util=0x1.ae27ccc0e59fcp-02 peakq=0
h hbm-1 done=962 shed=0 util=0x1.9c91eb24dc8a9p-02 peakq=0
h hbm-2 done=906 shed=0 util=0x1.8d8e9a03a4f3ep-02 peakq=0
h cxl-0 done=558 shed=0 util=0x1.f505590618ae9p-03 peakq=0
h cxl-1 done=510 shed=0 util=0x1.e10936c3d2e0ep-03 peakq=0
`,
	"round-robin/seed42": `round-robin seed=42 events=11962 hash=f68ecd5033586123 fair=0x1.f5369a9964fd6p-01
t Enterprise off=2078 done=2078 shed=0 orps=0x1.28db6db6db6dbp+09 grps=0x1.28db6db6db6dbp+09 sr=0x0p+00 p50=0x1.311c76ef53c7p+25 p95=0x1.5747b4de02c4p+25 p99=0x1.5747b4de02c4p+25 mean=0x1.39f1c2b40815dp+25 min=0x1.2f3e8ace65612p+25
t Big Data off=1731 done=1731 shed=0 orps=0x1.ee92492492492p+08 grps=0x1.ee92492492492p+08 sr=0x0p+00 p50=0x1.5e9a12f495a8p+24 p95=0x1.7b93228b4618p+24 p99=0x1.7b93228b4618p+24 mean=0x1.6392715fe9e55p+24 min=0x1.587bc4117bd74p+24
t HPC off=1406 done=1406 shed=0 orps=0x1.91b6db6db6db7p+08 grps=0x1.91b6db6db6db7p+08 sr=0x0p+00 p50=0x1.f64d5e52d8a8p+24 p95=0x1.3cb9a9a79408p+25 p99=0x1.3cb9a9a79408p+25 mean=0x1.eabfded127d4p+24 min=0x1.54e3206da81c4p+24
h dram-0 done=748 shed=0 util=0x1.9b2a932f7e3d9p-02 peakq=0
h dram-1 done=748 shed=0 util=0x1.9b2a932f7e3d9p-02 peakq=0
h dram-2 done=748 shed=0 util=0x1.9b2a932f7e3d9p-02 peakq=0
h hbm-0 done=748 shed=0 util=0x1.5ba7b3a0f3c7fp-02 peakq=0
h hbm-1 done=748 shed=0 util=0x1.5ba7b3a0f3c7fp-02 peakq=0
h hbm-2 done=747 shed=0 util=0x1.5b0676f30704cp-02 peakq=0
h cxl-0 done=747 shed=0 util=0x1.9e4fa9c6cf96bp-02 peakq=0
h cxl-1 done=747 shed=0 util=0x1.9e4fa9c6cf96bp-02 peakq=0
`,
	"least-loaded/seed42": `least-loaded seed=42 events=11962 hash=ce79cc214ad8d3a9 fair=0x1.f5ba870abe58p-01
t Enterprise off=2078 done=2078 shed=0 orps=0x1.28db6db6db6dbp+09 grps=0x1.28db6db6db6dbp+09 sr=0x0p+00 p50=0x1.311c76ef53c6p+25 p95=0x1.5747b4de02c4p+25 p99=0x1.5747b4de02c4p+25 mean=0x1.38b7949aed829p+25 min=0x1.2f3e8ace65612p+25
t Big Data off=1731 done=1731 shed=0 orps=0x1.ee92492492492p+08 grps=0x1.ee92492492492p+08 sr=0x0p+00 p50=0x1.5e9a12f495a8p+24 p95=0x1.7b93228b4618p+24 p99=0x1.7b93228b4618p+24 mean=0x1.62c1f3368431fp+24 min=0x1.587bc4117bd74p+24
t HPC off=1406 done=1406 shed=0 orps=0x1.91b6db6db6db7p+08 grps=0x1.91b6db6db6db7p+08 sr=0x0p+00 p50=0x1.f64d5e52d8a8p+24 p95=0x1.3cb9a9a79408p+25 p99=0x1.3cb9a9a79408p+25 mean=0x1.e4f75a252b3f7p+24 min=0x1.54e3206da81c4p+24
h dram-0 done=752 shed=0 util=0x1.9ec751d394d52p-02 peakq=0
h dram-1 done=739 shed=0 util=0x1.977fa78dff26bp-02 peakq=0
h dram-2 done=733 shed=0 util=0x1.8ef6e850a3ca1p-02 peakq=0
h hbm-0 done=830 shed=0 util=0x1.81def077fd875p-02 peakq=0
h hbm-1 done=807 shed=0 util=0x1.7ac4d795ab55bp-02 peakq=0
h hbm-2 done=804 shed=0 util=0x1.743789ae99c65p-02 peakq=0
h cxl-0 done=662 shed=0 util=0x1.7059ac822726dp-02 peakq=0
h cxl-1 done=654 shed=0 util=0x1.68fde10bd7fc8p-02 peakq=0
`,
	"weighted/seed42": `weighted seed=42 events=11962 hash=ac0324918956a646 fair=0x1.ffca374dc0c64p-01
t Enterprise off=2078 done=2078 shed=0 orps=0x1.28db6db6db6dbp+09 grps=0x1.28db6db6db6dbp+09 sr=0x0p+00 p50=0x1.311c76ef53c6p+25 p95=0x1.5747b4de02c4p+25 p99=0x1.5747b4de02c4p+25 mean=0x1.340f41942d763p+25 min=0x1.2f3e8ace65612p+25
t Big Data off=1731 done=1731 shed=0 orps=0x1.ee92492492492p+08 grps=0x1.ee92492492492p+08 sr=0x0p+00 p50=0x1.5e9a12f495acp+24 p95=0x1.7b93228b4618p+24 p99=0x1.7b93228b4618p+24 mean=0x1.69b8554b25615p+24 min=0x1.587bc4117bd74p+24
t HPC off=1406 done=1406 shed=0 orps=0x1.91b6db6db6db7p+08 grps=0x1.91b6db6db6db7p+08 sr=0x0p+00 p50=0x1.54e3206da82p+24 p95=0x1.54e3206da82p+24 p99=0x1.54e3206da82p+24 mean=0x1.54e3206da8115p+24 min=0x1.54e3206da81c4p+24
h dram-0 done=669 shed=0 util=0x1.798e2defa0bb1p-02 peakq=0
h dram-1 done=681 shed=0 util=0x1.6d7a97353e275p-02 peakq=0
h dram-2 done=659 shed=0 util=0x1.609dd24d8dfbbp-02 peakq=0
h hbm-0 done=1037 shed=0 util=0x1.af4e9bc4f8796p-02 peakq=0
h hbm-1 done=949 shed=0 util=0x1.9db8295e11b68p-02 peakq=0
h hbm-2 done=906 shed=0 util=0x1.9018eb03fb3bdp-02 peakq=0
h cxl-0 done=558 shed=0 util=0x1.fe03e4c0e9d97p-03 peakq=0
h cxl-1 done=522 shed=0 util=0x1.e576062a8702dp-03 peakq=0
`,
	"weighted/shed": `weighted seed=42 events=12498 hash=9c72a9f8136bfa4c fair=0x1.c224960e868a6p-01
t Enterprise off=3053 done=1165 shed=1888 orps=0x1.b424924924925p+09 grps=0x1.4cdb6db6db6dbp+08 sr=0x1.3c9ffd5115b7cp-01 p50=0x1.311c76ef53c6p+25 p95=0x1.311c76ef53c8p+25 p99=0x1.5747b4de02c4p+25 mean=0x1.3217f4aa96b72p+25 min=0x1.2f3e8ace65612p+25
t Big Data off=2641 done=1413 shed=1228 orps=0x1.7949249249249p+09 grps=0x1.93b6db6db6db7p+08 sr=0x1.dc22821584e52p-02 p50=0x1.5e9a12f495aap+24 p95=0x1.7b93228b4618p+24 p99=0x1.7b93228b4618p+24 mean=0x1.680f716c7d137p+24 min=0x1.587bc4117bd74p+24
t HPC off=2134 done=400 shed=1734 orps=0x1.30db6db6db6dbp+09 grps=0x1.c924924924925p+06 sr=0x1.a007ad773e24p-01 p50=0x1.54e3206da82p+24 p95=0x1.54e3206da82p+24 p99=0x1.54e3206da82p+24 mean=0x1.54e3206da81f1p+24 min=0x1.54e3206da81c4p+24
h dram-0 done=446 shed=0 util=0x1.cf92bf3b71dfep-03 peakq=0
h dram-1 done=450 shed=0 util=0x1.c728858dd685dp-03 peakq=0
h dram-2 done=440 shed=0 util=0x1.c7f7132e586f5p-03 peakq=0
h hbm-0 done=509 shed=4170 util=0x1.d755f8d4020adp-03 peakq=0
h hbm-1 done=509 shed=1212 util=0x1.c9301f9192b5p-03 peakq=0
h hbm-2 done=493 shed=0 util=0x1.d0000786cf132p-03 peakq=0
h cxl-0 done=369 shed=0 util=0x1.362e9d81ac3d9p-03 peakq=0
h cxl-1 done=342 shed=0 util=0x1.26a0929232ab4p-03 peakq=0
`,
	"round-robin/queue": `round-robin seed=42 events=11962 hash=b1f550f236a0512c fair=0x1.e4251b52da692p-01
t Enterprise off=2078 done=2078 shed=0 orps=0x1.28db6db6db6dbp+09 grps=0x1.28db6db6db6dbp+09 sr=0x0p+00 p50=0x1.03ee86011e40ap+27 p95=0x1.521bac9df5f6dp+28 p99=0x1.744c72f9cc8a2p+28 mean=0x1.25f3ef4d6e62p+27 min=0x1.2f3e8ace65612p+25
t Big Data off=1731 done=1731 shed=0 orps=0x1.ee92492492492p+08 grps=0x1.ee92492492492p+08 sr=0x0p+00 p50=0x1.c4134029d474p+26 p95=0x1.40b8154e9293p+28 p99=0x1.623451417e2d7p+28 mean=0x1.00f382f35e52ep+27 min=0x1.587bc4117bd74p+24
t HPC off=1406 done=1406 shed=0 orps=0x1.91b6db6db6db7p+08 grps=0x1.91b6db6db6db7p+08 sr=0x0p+00 p50=0x1.005cd7c75ea7ap+27 p95=0x1.4d1e954b630e8p+28 p99=0x1.68678f0ad86dfp+28 mean=0x1.15c7cf3ff63a1p+27 min=0x1.54e3206da81c4p+24
h dram-0 done=748 shed=0 util=0x1.f7c4dfd2d13cfp-01 peakq=56
h dram-1 done=748 shed=0 util=0x1.f7c4dfd2d13cfp-01 peakq=57
h dram-2 done=748 shed=0 util=0x1.f7c4dfd2d13cfp-01 peakq=57
h hbm-0 done=748 shed=0 util=0x1.a9f42eecd39c4p-01 peakq=4
h hbm-1 done=748 shed=0 util=0x1.a9f42eecd39c4p-01 peakq=4
h hbm-2 done=747 shed=0 util=0x1.a92ea1ed2b28fp-01 peakq=4
h cxl-0 done=747 shed=0 util=0x1.fb9f48c497954p-01 peakq=62
h cxl-1 done=747 shed=0 util=0x1.fb9f48c497954p-01 peakq=62
`,
	"least-loaded/queue": `least-loaded seed=42 events=11962 hash=9b9727a3775d252c fair=0x1.ef3883c309f43p-01
t Enterprise off=2078 done=2078 shed=0 orps=0x1.28db6db6db6dbp+09 grps=0x1.28db6db6db6dbp+09 sr=0x0p+00 p50=0x1.e84d253aeb57p+25 p95=0x1.8f406180852a1p+26 p99=0x1.b713344328eccp+26 mean=0x1.07b273708c2eap+26 min=0x1.2f3e8ace65612p+25
t Big Data off=1731 done=1731 shed=0 orps=0x1.ee92492492492p+08 grps=0x1.ee92492492492p+08 sr=0x0p+00 p50=0x1.5a192e5bd7b6p+25 p95=0x1.485a0df4fe07p+26 p99=0x1.6f6578f3af438p+26 mean=0x1.832624e4059cp+25 min=0x1.587bc4117bd74p+24
t HPC off=1406 done=1406 shed=0 orps=0x1.91b6db6db6db7p+08 grps=0x1.91b6db6db6db7p+08 sr=0x0p+00 p50=0x1.bc5a9c899cd98p+25 p95=0x1.866dacf8ad518p+26 p99=0x1.acd6799c9fe61p+26 mean=0x1.ce5f98a2e9e7dp+25 min=0x1.54e3206da81c4p+24
h dram-0 done=705 shed=0 util=0x1.fa866b162c452p-01 peakq=13
h dram-1 done=704 shed=0 util=0x1.fb4efa85be5bbp-01 peakq=13
h dram-2 done=702 shed=0 util=0x1.f97c08b5ea17p-01 peakq=13
h hbm-0 done=824 shed=0 util=0x1.f787ca8ae113bp-01 peakq=13
h hbm-1 done=832 shed=0 util=0x1.f733c2c68f3d7p-01 peakq=12
h hbm-2 done=830 shed=0 util=0x1.f7711de76199bp-01 peakq=12
h cxl-0 done=692 shed=0 util=0x1.f798aa25c8e04p-01 peakq=12
h cxl-1 done=692 shed=0 util=0x1.f76deba59a3f7p-01 peakq=12
`,
}

// CanonicalSpec serializes everything Simulate's outcome depends on for
// s.Policy alone: the single-policy form CanonicalSpecs must agree with.
func CanonicalSpec(s Spec) string { return CanonicalSpecs(s, []Policy{s.Policy})[0] }

// Key folds the canonical spec into a compact cache key.
func Key(s Spec) string { return model.ScenarioKey("cluster", CanonicalSpec(s)) }
