// Package params records the constants the paper publishes: the fitted
// per-workload model parameters (Tables 2, 4, 5), the class means
// (Table 6), the baseline platform of the sensitivity studies (§VI.C.2),
// and the headline results our benchmarks compare against (Fig. 11
// slopes, Table 7 equivalences).
//
// Two caveats, documented in DESIGN.md §2: the NITS writeback rate is
// reconstructed as 180% (the extracted table cell is corrupt; the prose
// says it exceeds 100% and the Table 6 class mean of 92% pins it), and
// the per-workload cells of Tables 4/5 were elided in extraction, so
// those entries are chosen to be consistent with the Table 6 means and
// the prose. Table 2 entries are verbatim.
package params

import "repro/internal/units"

// Target is a published (or reconstructed) set of fitted model parameters
// for one workload.
type Target struct {
	Workload string
	CPICache float64
	BF       float64
	MPKI     float64
	WBR      float64 // fraction of MPI (the paper prints it as a percent)
	// Verbatim reports whether the values are printed in the paper
	// (Table 2 and Table 6) or reconstructed from the class means.
	Verbatim bool
}

// Table2 is the paper's big-data workload parameters.
var Table2 = []Target{
	{Workload: "columnstore", CPICache: 0.89, BF: 0.20, MPKI: 5.6, WBR: 0.32, Verbatim: true},
	{Workload: "nits", CPICache: 0.96, BF: 0.18, MPKI: 5.0, WBR: 1.80, Verbatim: false},
	{Workload: "spark", CPICache: 0.90, BF: 0.25, MPKI: 6.0, WBR: 0.64, Verbatim: true},
	{Workload: "proximity", CPICache: 0.93, BF: 0.03, MPKI: 0.5, WBR: 0.47, Verbatim: true},
}

// Table4 is the enterprise workload parameters (reconstructed; means match
// Table 6).
var Table4 = []Target{
	{Workload: "oltp", CPICache: 1.90, BF: 0.55, MPKI: 8.5, WBR: 0.25},
	{Workload: "virtualization", CPICache: 1.60, BF: 0.45, MPKI: 7.5, WBR: 0.30},
	{Workload: "jvm", CPICache: 1.00, BF: 0.30, MPKI: 5.0, WBR: 0.35},
	{Workload: "webcache", CPICache: 1.40, BF: 0.35, MPKI: 5.8, WBR: 0.18},
}

// Table5 is the HPC workload parameters (reconstructed; means match
// Table 6).
var Table5 = []Target{
	{Workload: "bwaves", CPICache: 0.65, BF: 0.05, MPKI: 32.0, WBR: 0.30},
	{Workload: "milc", CPICache: 0.70, BF: 0.06, MPKI: 30.0, WBR: 0.35},
	{Workload: "soplex", CPICache: 0.85, BF: 0.11, MPKI: 25.0, WBR: 0.25},
	{Workload: "wrf", CPICache: 0.80, BF: 0.06, MPKI: 19.8, WBR: 0.18},
}

// Table6 is the paper's workload-class means (verbatim). The big-data
// mean excludes the core-bound Proximity workload, as §VI.B does.
var Table6 = []Target{
	{Workload: "Enterprise", CPICache: 1.47, BF: 0.41, MPKI: 6.7, WBR: 0.27, Verbatim: true},
	{Workload: "Big Data", CPICache: 0.91, BF: 0.21, MPKI: 5.5, WBR: 0.92, Verbatim: true},
	{Workload: "HPC", CPICache: 0.75, BF: 0.07, MPKI: 26.7, WBR: 0.27, Verbatim: true},
}

// ByWorkload returns the target for a named workload from Tables 2/4/5.
func ByWorkload(name string) (Target, bool) {
	for _, tab := range [][]Target{Table2, Table4, Table5} {
		for _, t := range tab {
			if t.Workload == name {
				return t, true
			}
		}
	}
	return Target{}, false
}

// Baseline is the §VI.C.2 reference platform: "a single-socket system
// with an eight core processor, a 75ns compulsory memory latency, and
// four channels of DDR3-1867", Hyper-Threading enabled (16 hardware
// threads), ~70% channel efficiency giving ≈42 GB/s effective
// (≈5.25 GB/s per core).
type BaselinePlatform struct {
	Cores          int
	ThreadsPerCore int
	CoreSpeed      units.Hertz
	Compulsory     units.Duration
	Channels       int
	ChannelMTs     int
	Efficiency     float64
	LineSize       units.Bytes
}

// Baseline returns the paper's baseline platform. The paper does not
// print the modelled core speed; 2.5 GHz reproduces its Fig. 11 slopes
// (≈3.5%/10ns enterprise, ≈2.5%/10ns big data — DESIGN.md §6).
func Baseline() BaselinePlatform {
	return BaselinePlatform{
		Cores:          8,
		ThreadsPerCore: 2,
		CoreSpeed:      units.GHzOf(2.5),
		Compulsory:     75 * units.Nanosecond,
		Channels:       4,
		ChannelMTs:     1867,
		Efficiency:     0.70,
		LineSize:       64,
	}
}

// EffectiveBandwidth returns the platform's deliverable bandwidth:
// channels × MT/s × 8 B × efficiency (≈42 GB/s for the baseline).
func (b BaselinePlatform) EffectiveBandwidth() units.BytesPerSecond {
	raw := float64(b.Channels) * float64(b.ChannelMTs) * 1e6 * 8
	return units.BytesPerSecond(raw * b.Efficiency)
}

// The paper's headline results (§VI.C.3, §VI.D, Table 7): the Fig. 11
// and Table 7 artifacts print them next to the reproduced values, and
// the experiments' accuracy pins are bounds around them.
const (
	// Fig. 11: CPI increase per +10 ns compulsory latency.
	EnterprisePctPer10ns = 0.035
	BigDataPctPer10ns    = 0.025
	HPCPctPer10ns        = 0.0

	// Table 7: performance benefit of +1 GB/s/core for HPC (~24%); the
	// enterprise and big-data benefits are "under 1%".
	HPCBenefitPer1GBs = 0.24

	// Table 7: bandwidth equivalent of a 10 ns latency improvement.
	Enterprise10nsEquivGBs = 39.7
	BigData10nsEquivGBs    = 27.1

	// Table 7: latency equivalent of +1 GB/s/core.
	Enterprise1GBsEquivNs = 2.0
	BigData1GBsEquivNs    = 2.9
)

// Fig1Trend reproduces the Fig. 1 scaling-gap narrative: server core
// counts growing 33–50% per year against much slower DRAM density
// scaling. Values are normalized to the 2012 platform generation.
type Fig1Trend struct {
	Year       int
	CoreGrowth float64 // cumulative core-count factor
	DRAMGrowth float64 // cumulative per-socket DRAM capacity factor
}

// Fig1 returns the trend series used by the Figure 1 experiment: cores
// compounding at ~40%/yr versus DRAM density at ~15%/yr.
func Fig1(years int) []Fig1Trend {
	out := make([]Fig1Trend, years)
	core, dram := 1.0, 1.0
	for i := 0; i < years; i++ {
		out[i] = Fig1Trend{Year: 2012 + i, CoreGrowth: core, DRAMGrowth: dram}
		core *= 1.40
		dram *= 1.15
	}
	return out
}
