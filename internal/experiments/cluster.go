package experiments

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/report"
	"repro/internal/units"
)

// clusterSpec is the shared fleet scenario of the §"fleet extension"
// experiments: the 8-host DRAM/HBM/CXL reference fleet under the three
// Table 6 class means, four simulated seconds with a half-second
// warmup. Everything downstream is deterministic in the seed.
func clusterSpec(policy cluster.Policy) cluster.Spec {
	return cluster.Spec{
		Hosts:    cluster.DefaultFleet(),
		Tenants:  cluster.DefaultTenants(),
		Policy:   policy,
		Duration: 4 * units.Second,
		Warmup:   units.Second / 2,
		Seed:     42,
	}
}

// fmtMS renders a duration in milliseconds.
func fmtMS(d units.Duration) string { return fmt.Sprintf("%.1f", d.Nanoseconds()/1e6) }

// ClusterRouting races the three routing policies on the mixed-tier
// fleet: the latency-sensitive Enterprise class wants to stay off the
// CXL far-memory hosts, the bandwidth-hungry HPC class wants the
// die-stacked HBM hosts, and only the model-aware weighted policy knows
// either. Round-robin and least-loaded spread blindly, so each class's
// tail latency carries the worst host it touches.
func (s *Suite) ClusterRouting(ctx context.Context) (Artifact, error) {
	table := report.NewTable("Fleet routing policies on a mixed DRAM/HBM/CXL fleet",
		"policy", "tenant", "p50 ms", "p95 ms", "p99 ms", "goodput rps", "shed", "Jain fairness")
	chart := report.NewChart("p99 latency by routing policy", "policy (0=rr, 1=ll, 2=weighted)", "p99 ms")

	series := map[string][]float64{}
	var xs []float64
	spec := clusterSpec(cluster.RoundRobin)
	results, err := cluster.SimulatePolicies(ctx, spec, cluster.Policies())
	if err != nil {
		return Artifact{}, err
	}
	for i, res := range results {
		for _, tm := range res.Tenants {
			table.AddRow(res.Policy.String(), tm.Name,
				fmtMS(tm.P50), fmtMS(tm.P95), fmtMS(tm.P99),
				fmt.Sprintf("%.0f", tm.GoodputRPS), fmtPct(tm.ShedRate),
				fmt.Sprintf("%.4f", res.Fairness))
			series[tm.Name] = append(series[tm.Name], tm.P99.Nanoseconds()/1e6)
		}
		xs = append(xs, float64(i))
	}
	for _, ten := range spec.Tenants {
		if err := chart.AddSeries(ten.Name, xs, series[ten.Name]); err != nil {
			return Artifact{}, err
		}
	}
	table.AddNote("weighted scoring prices each (tenant, host) pair through the analytic model: HPC (bandwidth-bound, §VI.A) migrates to the 4x-bandwidth HBM hosts and its p99 collapses to the unloaded service time")
	table.AddNote("blind policies put ~1/4 of every class on CXL hosts, so Enterprise (highest BF) pays the 3x far-memory latency in its tail")
	table.AddNote("Jain fairness is computed over delivered-performance shares (completion ratio x best-host slowdown), so placement skew shows up even with zero shedding")
	return Artifact{ID: "cluster-routing", Tables: []*report.Table{table}, Charts: []*report.Chart{chart}}, nil
}

// ClusterAdmission arms per-host token buckets sized below the fleet's
// offered load and sweeps a load multiplier: the shed rate walks up
// with overload while goodput plateaus at the admission quota — the
// open-loop saturation behaviour a latency SLO needs admission control
// to buy.
func (s *Suite) ClusterAdmission(ctx context.Context) (Artifact, error) {
	table := report.NewTable("Token-bucket admission under load (weighted routing, 120 rps/host quota)",
		"load multiplier", "offered rps", "goodput rps", "shed rate",
		"Enterprise shed", "Big Data shed", "HPC shed", "Jain fairness")
	chart := report.NewChart("shed rate vs offered load", "load multiplier", "shed rate")

	var xs, totals []float64
	perClass := map[string][]float64{}
	for _, mult := range []float64{0.5, 0.75, 1.0, 1.25, 1.5} {
		spec := clusterSpec(cluster.WeightedScore)
		for i := range spec.Hosts {
			spec.Hosts[i].AdmitRate = 120
			spec.Hosts[i].AdmitBurst = 30
		}
		for i := range spec.Tenants {
			spec.Tenants[i].Rate *= mult
		}
		res, err := cluster.Simulate(ctx, spec)
		if err != nil {
			return Artifact{}, err
		}
		var offered, goodput float64
		var shed, count int64
		sheds := map[string]float64{}
		for _, tm := range res.Tenants {
			offered += tm.OfferedRPS
			goodput += tm.GoodputRPS
			shed += tm.Shed
			count += tm.Offered
			sheds[tm.Name] = tm.ShedRate
		}
		total := float64(shed) / float64(count)
		table.AddRow(fmt.Sprintf("%.2fx", mult),
			fmt.Sprintf("%.0f", offered), fmt.Sprintf("%.0f", goodput), fmtPct(total),
			fmtPct(sheds["Enterprise"]), fmtPct(sheds["Big Data"]), fmtPct(sheds["HPC"]),
			fmt.Sprintf("%.4f", res.Fairness))
		xs = append(xs, mult)
		totals = append(totals, total)
		for name, v := range map[string]float64{
			"Enterprise": sheds["Enterprise"], "Big Data": sheds["Big Data"], "HPC": sheds["HPC"],
		} {
			perClass[name] = append(perClass[name], v)
		}
	}
	if err := chart.AddSeries("total", xs, totals); err != nil {
		return Artifact{}, err
	}
	for _, name := range []string{"Enterprise", "Big Data", "HPC"} {
		if err := chart.AddSeries(name, xs, perClass[name]); err != nil {
			return Artifact{}, err
		}
	}
	table.AddNote("the 8x120 rps fleet quota sits below the 1500 rps reference load, so shedding engages before queues grow without bound and climbs with the multiplier")
	table.AddNote("token buckets shed per host, so classes the router concentrates (HPC on the three HBM hosts) hit their quotas first")
	return Artifact{ID: "cluster-admission", Tables: []*report.Table{table}, Charts: []*report.Chart{chart}}, nil
}
