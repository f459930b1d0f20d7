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

// goldenResults was captured before the event loop was optimized.
var goldenResults = map[string]string{
	"round-robin/seed1": `round-robin seed=1 events=12080 hash=9b739d225b84fab8 fair=0x1.f52c88d3808b9p-01
t Enterprise off=2075 done=2075 shed=0 orps=0x1.286db6db6db6ep+09 grps=0x1.286db6db6db6ep+09 sr=0x0p+00 p50=0x1.311c76ef53c7p+25 p95=0x1.5747b4de02c4p+25 p99=0x1.5747b4de02c4p+25 mean=0x1.39f0172e13fd6p+25 min=0x1.2f3e8ace65612p+25
t Big Data off=1808 done=1808 shed=0 orps=0x1.0249249249249p+09 grps=0x1.0249249249249p+09 sr=0x0p+00 p50=0x1.5e9a12f495a8p+24 p95=0x1.7b93228b4618p+24 p99=0x1.7b93228b4618p+24 mean=0x1.638cf94518132p+24 min=0x1.587bc4117bd74p+24
t HPC off=1393 done=1393 shed=0 orps=0x1.8ep+08 grps=0x1.8ep+08 sr=0x0p+00 p50=0x1.f64d5e52d8a8p+24 p95=0x1.3cb9a9a79408p+25 p99=0x1.3cb9a9a79408p+25 mean=0x1.eb0df30d380b3p+24 min=0x1.54e3206da81c4p+24
h dram-0 done=757 shed=0 util=0x1.9ea6633cae13p-02 peakq=0
h dram-1 done=755 shed=0 util=0x1.9da0d431ec84cp-02 peakq=0
h dram-2 done=755 shed=0 util=0x1.9da0d431ec84cp-02 peakq=0
h hbm-0 done=755 shed=0 util=0x1.5e15fb1c9c3c5p-02 peakq=0
h hbm-1 done=755 shed=0 util=0x1.5e15fb1c9c3c5p-02 peakq=0
h hbm-2 done=755 shed=0 util=0x1.5e15fb1c9c3c5p-02 peakq=0
h cxl-0 done=754 shed=0 util=0x1.a0fba7a189ccap-02 peakq=0
h cxl-1 done=754 shed=0 util=0x1.a0fba7a189ccap-02 peakq=0
`,
	"least-loaded/seed1": `least-loaded seed=1 events=12080 hash=b405390769e01610 fair=0x1.f5432795eeddfp-01
t Enterprise off=2075 done=2075 shed=0 orps=0x1.286db6db6db6ep+09 grps=0x1.286db6db6db6ep+09 sr=0x0p+00 p50=0x1.311c76ef53c6p+25 p95=0x1.5747b4de02c4p+25 p99=0x1.5747b4de02c4p+25 mean=0x1.38ade17a004cp+25 min=0x1.2f3e8ace65612p+25
t Big Data off=1808 done=1808 shed=0 orps=0x1.0249249249249p+09 grps=0x1.0249249249249p+09 sr=0x0p+00 p50=0x1.5e9a12f495a8p+24 p95=0x1.7b93228b4618p+24 p99=0x1.7b93228b4618p+24 mean=0x1.62755a2f0b746p+24 min=0x1.587bc4117bd74p+24
t HPC off=1393 done=1393 shed=0 orps=0x1.8ep+08 grps=0x1.8ep+08 sr=0x0p+00 p50=0x1.f64d5e52d8a8p+24 p95=0x1.3cb9a9a79408p+25 p99=0x1.3cb9a9a79408p+25 mean=0x1.e89794f4ca4d6p+24 min=0x1.54e3206da81c4p+24
h dram-0 done=752 shed=0 util=0x1.a05e6be1abad4p-02 peakq=0
h dram-1 done=747 shed=0 util=0x1.9af18d7c3bfc9p-02 peakq=0
h dram-2 done=733 shed=0 util=0x1.92812864c0672p-02 peakq=0
h hbm-0 done=840 shed=0 util=0x1.8790b99f27aeep-02 peakq=0
h hbm-1 done=824 shed=0 util=0x1.7e5f841f3aaep-02 peakq=0
h hbm-2 done=821 shed=0 util=0x1.781716bbef04cp-02 peakq=0
h cxl-0 done=670 shed=0 util=0x1.7230187b8438cp-02 peakq=0
h cxl-1 done=653 shed=0 util=0x1.6a67a977cbd21p-02 peakq=0
`,
	"weighted/seed1": `weighted seed=1 events=12080 hash=619f7fb4b23e62af fair=0x1.ffce7b78f6055p-01
t Enterprise off=2075 done=2075 shed=0 orps=0x1.286db6db6db6ep+09 grps=0x1.286db6db6db6ep+09 sr=0x0p+00 p50=0x1.311c76ef53c68p+25 p95=0x1.5747b4de02c4p+25 p99=0x1.5747b4de02c4p+25 mean=0x1.34501931c8813p+25 min=0x1.2f3e8ace65612p+25
t Big Data off=1808 done=1808 shed=0 orps=0x1.0249249249249p+09 grps=0x1.0249249249249p+09 sr=0x0p+00 p50=0x1.5e9a12f495acp+24 p95=0x1.7b93228b4618p+24 p99=0x1.7b93228b4618p+24 mean=0x1.6918c49633c14p+24 min=0x1.587bc4117bd74p+24
t HPC off=1393 done=1393 shed=0 orps=0x1.8ep+08 grps=0x1.8ep+08 sr=0x0p+00 p50=0x1.54e3206da82p+24 p95=0x1.54e3206da82p+24 p99=0x1.54e3206da82p+24 mean=0x1.54e3206da8117p+24 min=0x1.54e3206da81c4p+24
h dram-0 done=685 shed=0 util=0x1.7ca43729fea7dp-02 peakq=0
h dram-1 done=677 shed=0 util=0x1.6d544331adfbap-02 peakq=0
h dram-2 done=671 shed=0 util=0x1.6353d8ddbcc93p-02 peakq=0
h hbm-0 done=1039 shed=0 util=0x1.b2be1538ca5afp-02 peakq=0
h hbm-1 done=964 shed=0 util=0x1.9efca7e968fdep-02 peakq=0
h hbm-2 done=913 shed=0 util=0x1.92793e5a4811cp-02 peakq=0
h cxl-0 done=569 shed=0 util=0x1.03a1fa51f1de3p-02 peakq=0
h cxl-1 done=522 shed=0 util=0x1.ef9b1afbc1288p-03 peakq=0
`,
	"round-robin/seed42": `round-robin seed=42 events=11782 hash=6d355f8d6bf0a765 fair=0x1.f5307736d7d6dp-01
t Enterprise off=2053 done=2053 shed=0 orps=0x1.2549249249249p+09 grps=0x1.2549249249249p+09 sr=0x0p+00 p50=0x1.311c76ef53c7p+25 p95=0x1.5747b4de02c4p+25 p99=0x1.5747b4de02c4p+25 mean=0x1.39f80f6ed224ep+25 min=0x1.2f3e8ace65612p+25
t Big Data off=1715 done=1715 shed=0 orps=0x1.eap+08 grps=0x1.eap+08 sr=0x0p+00 p50=0x1.5e9a12f495a8p+24 p95=0x1.7b93228b4618p+24 p99=0x1.7b93228b4618p+24 mean=0x1.638d417aa9c2p+24 min=0x1.587bc4117bd74p+24
t HPC off=1352 done=1352 shed=0 orps=0x1.8249249249249p+08 grps=0x1.8249249249249p+08 sr=0x0p+00 p50=0x1.f64d5e52d8a8p+24 p95=0x1.3cb9a9a79408p+25 p99=0x1.3cb9a9a79408p+25 mean=0x1.eaf3c2fb84324p+24 min=0x1.54e3206da81c4p+24
h dram-0 done=738 shed=0 util=0x1.95515bfdaed3dp-02 peakq=0
h dram-1 done=737 shed=0 util=0x1.94a9262e60c62p-02 peakq=0
h dram-2 done=737 shed=0 util=0x1.94a9262e60c62p-02 peakq=0
h hbm-0 done=736 shed=0 util=0x1.5671a6a7fd526p-02 peakq=0
h hbm-1 done=736 shed=0 util=0x1.5671a6a7fd526p-02 peakq=0
h hbm-2 done=736 shed=0 util=0x1.5671a6a7fd526p-02 peakq=0
h cxl-0 done=736 shed=0 util=0x1.986b374b9c84p-02 peakq=0
h cxl-1 done=735 shed=0 util=0x1.98066be58fdb9p-02 peakq=0
`,
	"least-loaded/seed42": `least-loaded seed=42 events=11782 hash=8d9cf97ee7f2a140 fair=0x1.f56818b473748p-01
t Enterprise off=2053 done=2053 shed=0 orps=0x1.2549249249249p+09 grps=0x1.2549249249249p+09 sr=0x0p+00 p50=0x1.311c76ef53c6p+25 p95=0x1.5747b4de02c4p+25 p99=0x1.5747b4de02c4p+25 mean=0x1.38bac0b29b6a8p+25 min=0x1.2f3e8ace65612p+25
t Big Data off=1715 done=1715 shed=0 orps=0x1.eap+08 grps=0x1.eap+08 sr=0x0p+00 p50=0x1.5e9a12f495a8p+24 p95=0x1.7b93228b4618p+24 p99=0x1.7b93228b4618p+24 mean=0x1.62a092e7107c8p+24 min=0x1.587bc4117bd74p+24
t HPC off=1352 done=1352 shed=0 orps=0x1.8249249249249p+08 grps=0x1.8249249249249p+08 sr=0x0p+00 p50=0x1.f64d5e52d8a8p+24 p95=0x1.3cb9a9a79408p+25 p99=0x1.3cb9a9a79408p+25 mean=0x1.e78e99b4dea3p+24 min=0x1.54e3206da81c4p+24
h dram-0 done=730 shed=0 util=0x1.992f5376dff7cp-02 peakq=0
h dram-1 done=739 shed=0 util=0x1.90141fa50f1d8p-02 peakq=0
h dram-2 done=713 shed=0 util=0x1.8a3125f79992fp-02 peakq=0
h hbm-0 done=802 shed=0 util=0x1.7d7e227e476a1p-02 peakq=0
h hbm-1 done=818 shed=0 util=0x1.77303edc927b3p-02 peakq=0
h hbm-2 done=797 shed=0 util=0x1.6e147bf44fa31p-02 peakq=0
h cxl-0 done=651 shed=0 util=0x1.69f631f23cedfp-02 peakq=0
h cxl-1 done=641 shed=0 util=0x1.641d39da98e0ep-02 peakq=0
`,
	"weighted/seed42": `weighted seed=42 events=11782 hash=42eb9490838fd405 fair=0x1.ffcf15042bd67p-01
t Enterprise off=2053 done=2053 shed=0 orps=0x1.2549249249249p+09 grps=0x1.2549249249249p+09 sr=0x0p+00 p50=0x1.311c76ef53c6p+25 p95=0x1.5747b4de02c4p+25 p99=0x1.5747b4de02c4p+25 mean=0x1.346de2b6900bfp+25 min=0x1.2f3e8ace65612p+25
t Big Data off=1715 done=1715 shed=0 orps=0x1.eap+08 grps=0x1.eap+08 sr=0x0p+00 p50=0x1.5e9a12f495acp+24 p95=0x1.7b93228b4618p+24 p99=0x1.7b93228b4618p+24 mean=0x1.69051f61f95d4p+24 min=0x1.587bc4117bd74p+24
t HPC off=1352 done=1352 shed=0 orps=0x1.8249249249249p+08 grps=0x1.8249249249249p+08 sr=0x0p+00 p50=0x1.54e3206da82p+24 p95=0x1.54e3206da82p+24 p99=0x1.54e3206da82p+24 mean=0x1.54e3206da812p+24 min=0x1.54e3206da81c4p+24
h dram-0 done=670 shed=0 util=0x1.74fc66f7b1943p-02 peakq=0
h dram-1 done=667 shed=0 util=0x1.684dc6085149ep-02 peakq=0
h dram-2 done=666 shed=0 util=0x1.5c5982b78a932p-02 peakq=0
h hbm-0 done=1025 shed=0 util=0x1.a7a67b995bf68p-02 peakq=0
h hbm-1 done=931 shed=0 util=0x1.986c12bfb7147p-02 peakq=0
h hbm-2 done=879 shed=0 util=0x1.8d321db6f360cp-02 peakq=0
h cxl-0 done=550 shed=0 util=0x1.f5aff33c28c5ep-03 peakq=0
h cxl-1 done=503 shed=0 util=0x1.e27dfdeff04dbp-03 peakq=0
`,
	"weighted/shed": `weighted seed=42 events=12416 hash=3b270feb739b2df0 fair=0x1.c5467218badc1p-01
t Enterprise off=3114 done=1168 shed=1946 orps=0x1.bcdb6db6db6dbp+09 grps=0x1.4db6db6db6db7p+08 sr=0x1.3ff57a29c32a4p-01 p50=0x1.311c76ef53c6p+25 p95=0x1.311c76ef53c8p+25 p99=0x1.5747b4de02c4p+25 mean=0x1.31a6b0908b13fp+25 min=0x1.2f3e8ace65612p+25
t Big Data off=2600 done=1380 shed=1220 orps=0x1.736db6db6db6ep+09 grps=0x1.8a49249249249p+08 sr=0x1.e07e07e07e07ep-02 p50=0x1.5e9a12f495acp+24 p95=0x1.7b93228b4618p+24 p99=0x1.7b93228b4618p+24 mean=0x1.68a7d1d2f0a64p+24 min=0x1.587bc4117bd74p+24
t HPC off=2042 done=394 shed=1648 orps=0x1.23b6db6db6db7p+09 grps=0x1.c249249249249p+06 sr=0x1.9d35e86e52be1p-01 p50=0x1.54e3206da81dp+24 p95=0x1.54e3206da82p+24 p99=0x1.54e3206da82p+24 mean=0x1.54e3206da81fp+24 min=0x1.54e3206da81c4p+24
h dram-0 done=441 shed=0 util=0x1.ccd7a54b2db85p-03 peakq=0
h dram-1 done=437 shed=0 util=0x1.c963d6c7eb3cbp-03 peakq=0
h dram-2 done=432 shed=0 util=0x1.c649b56454facp-03 peakq=0
h hbm-0 done=509 shed=4687 util=0x1.c7c4f771cc2c2p-03 peakq=0
h hbm-1 done=501 shed=660 util=0x1.cbc47f4836035p-03 peakq=0
h hbm-2 done=498 shed=11 util=0x1.cffeaf5c6e529p-03 peakq=0
h cxl-0 done=366 shed=0 util=0x1.326dcdfce8202p-03 peakq=0
h cxl-1 done=345 shed=0 util=0x1.246c0d3f2964cp-03 peakq=0
`,
	"round-robin/queue": `round-robin seed=42 events=11782 hash=631149556f8363f1 fair=0x1.e45d406540448p-01
t Enterprise off=2053 done=2053 shed=0 orps=0x1.2549249249249p+09 grps=0x1.2549249249249p+09 sr=0x0p+00 p50=0x1.d1a0781c3a4e8p+26 p95=0x1.1d2cf4e99dc06p+28 p99=0x1.440ec30682c9ep+28 mean=0x1.09bab4838029dp+27 min=0x1.2f3e8ace65612p+25
t Big Data off=1715 done=1715 shed=0 orps=0x1.eap+08 grps=0x1.eap+08 sr=0x0p+00 p50=0x1.8a5a690bd0d9p+26 p95=0x1.1345101b4611p+28 p99=0x1.34820985f5586p+28 mean=0x1.d5c4809c63b27p+26 min=0x1.587bc4117bd74p+24
t HPC off=1352 done=1352 shed=0 orps=0x1.8249249249249p+08 grps=0x1.8249249249249p+08 sr=0x0p+00 p50=0x1.c592ab167ea88p+26 p95=0x1.1db8455932c5p+28 p99=0x1.39bc334cc691dp+28 mean=0x1.eff55f3844191p+26 min=0x1.54e3206da81c4p+24
h dram-0 done=738 shed=0 util=0x1.f6d60e12353c9p-01 peakq=48
h dram-1 done=737 shed=0 util=0x1.f6055fb58d9f9p-01 peakq=49
h dram-2 done=737 shed=0 util=0x1.f6055fb58d9f9p-01 peakq=49
h hbm-0 done=736 shed=0 util=0x1.a8d5c3878f4dep-01 peakq=4
h hbm-1 done=736 shed=0 util=0x1.a8d5c3878f4dep-01 peakq=4
h hbm-2 done=736 shed=0 util=0x1.a8d5c3878f4dep-01 peakq=4
h cxl-0 done=736 shed=0 util=0x1.faaee94d507dcp-01 peakq=56
h cxl-1 done=735 shed=0 util=0x1.fa31ddad597ddp-01 peakq=56
`,
	"least-loaded/queue": `least-loaded seed=42 events=11782 hash=2e84f86fe218fe80 fair=0x1.f2a097f51c5dap-01
t Enterprise off=2053 done=2053 shed=0 orps=0x1.2549249249249p+09 grps=0x1.2549249249249p+09 sr=0x0p+00 p50=0x1.cd72364c39bcp+25 p95=0x1.33dac64d16d86p+26 p99=0x1.55379a4d872aep+26 mean=0x1.ca4a0456c8e8bp+25 min=0x1.2f3e8ace65612p+25
t Big Data off=1715 done=1715 shed=0 orps=0x1.eap+08 grps=0x1.eap+08 sr=0x0p+00 p50=0x1.42ca0d81c3dc8p+25 p95=0x1.da9eaedf1c7p+25 p99=0x1.fcba2fa7b9057p+25 mean=0x1.3ceceb69d4c7cp+25 min=0x1.587bc4117bd74p+24
t HPC off=1352 done=1352 shed=0 orps=0x1.8249249249249p+08 grps=0x1.8249249249249p+08 sr=0x0p+00 p50=0x1.7093c530c8aap+25 p95=0x1.32ffef0f2c8f3p+26 p99=0x1.4c48e8688ae78p+26 mean=0x1.81e4bd8a9b254p+25 min=0x1.54e3206da81c4p+24
h dram-0 done=697 shed=0 util=0x1.fa366ed744dep-01 peakq=8
h dram-1 done=694 shed=0 util=0x1.f94a0a005db1fp-01 peakq=8
h dram-2 done=686 shed=0 util=0x1.f933202fef434p-01 peakq=8
h hbm-0 done=816 shed=0 util=0x1.f6abe24c661b1p-01 peakq=8
h hbm-1 done=820 shed=0 util=0x1.f5a154074d24ap-01 peakq=8
h hbm-2 done=825 shed=0 util=0x1.f4528d539efcep-01 peakq=8
h cxl-0 done=680 shed=0 util=0x1.f4542df20cdd6p-01 peakq=8
h cxl-1 done=673 shed=0 util=0x1.f31fa64e9a18ap-01 peakq=8
`,
}
