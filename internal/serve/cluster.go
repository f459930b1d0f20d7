package serve

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/api"
	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/units"
)

// Caps on fleet simulations so one request cannot monopolize the
// daemon: the host/tenant counts bound the pricing matrix, the
// duration and expected-arrival caps bound the event loop.
const (
	maxClusterHosts    = 64
	maxClusterTenants  = 16
	maxClusterDuration = 120.0 // simulated seconds
	maxClusterArrivals = 2_000_000
)

// clusterSpec materializes the request into the base cluster.Spec
// (policy left to the caller) plus the parsed policy list. A free
// function because api.ClusterRequest is defined in repro/api.
func clusterSpec(req api.ClusterRequest) (cluster.Spec, []cluster.Policy, error) {
	duration := req.DurationS
	if duration == 0 {
		duration = 4
	}
	if duration < 0 || duration > maxClusterDuration {
		return cluster.Spec{}, nil, fmt.Errorf("%w: duration_s must be in (0,%g]",
			model.ErrInvalidPlatform, maxClusterDuration)
	}
	warmup := req.WarmupS
	if warmup == 0 {
		warmup = duration / 8
	}
	scale := req.RateScale
	if scale == 0 {
		scale = 1
	}
	if scale < 0 {
		return cluster.Spec{}, nil, fmt.Errorf("%w: rate_scale must be positive", model.ErrInvalidPlatform)
	}

	spec := cluster.Spec{
		Duration: units.Duration(duration * 1e9),
		Warmup:   units.Duration(warmup * 1e9),
		Seed:     req.Seed,
	}
	if len(req.Hosts) == 0 {
		spec.Hosts = cluster.DefaultFleet()
	} else {
		for i, hs := range req.Hosts {
			count := hs.Count
			if count == 0 {
				count = 1
			}
			if count < 0 || len(spec.Hosts)+count > maxClusterHosts {
				return cluster.Spec{}, nil, fmt.Errorf("%w: at most %d hosts per fleet",
					model.ErrInvalidPlatform, maxClusterHosts)
			}
			top, err := hs.Topology.Topology()
			if err != nil {
				return cluster.Spec{}, nil, fmt.Errorf("host %d: %w", i, err)
			}
			name := hs.Name
			if name == "" {
				name = fmt.Sprintf("host%d", i)
			}
			for r := 0; r < count; r++ {
				h := cluster.HostSpec{
					Name:       name,
					Topology:   top,
					Slots:      hs.Slots,
					AdmitRate:  hs.AdmitRate,
					AdmitBurst: hs.AdmitBurst,
				}
				if count > 1 {
					h.Name = fmt.Sprintf("%s-%d", name, r)
				}
				spec.Hosts = append(spec.Hosts, h)
			}
		}
	}
	if len(req.Tenants) == 0 {
		spec.Tenants = cluster.DefaultTenants()
	} else {
		if len(req.Tenants) > maxClusterTenants {
			return cluster.Spec{}, nil, fmt.Errorf("%w: at most %d tenants per fleet",
				model.ErrInvalidParams, maxClusterTenants)
		}
		for i, ts := range req.Tenants {
			p, err := ts.Params.Params()
			if err != nil {
				return cluster.Spec{}, nil, fmt.Errorf("tenant %d: %w", i, err)
			}
			name := ts.Name
			if name == "" {
				name = p.Name
			}
			work := ts.WorkInstr
			if work == 0 {
				work = cluster.DefaultWork
			}
			spec.Tenants = append(spec.Tenants, cluster.TenantSpec{
				Name: name, Params: p, Rate: ts.RateRPS, Work: work,
			})
		}
	}
	var expected float64
	for i := range spec.Tenants {
		spec.Tenants[i].Rate *= scale
		expected += spec.Tenants[i].Rate * duration
	}
	if expected > maxClusterArrivals {
		return cluster.Spec{}, nil, fmt.Errorf("%w: expected arrivals %.0f exceed the %d cap (shrink rates or duration)",
			model.ErrInvalidPlatform, expected, maxClusterArrivals)
	}

	var policies []cluster.Policy
	if len(req.Policies) == 0 {
		policies = cluster.Policies()
	} else {
		for _, s := range req.Policies {
			p, err := cluster.ParsePolicy(s)
			if err != nil {
				return cluster.Spec{}, nil, err
			}
			policies = append(policies, p)
		}
	}
	if err := func() error { s := spec; s.Policy = policies[0]; return s.Validate() }(); err != nil {
		return cluster.Spec{}, nil, err
	}
	return spec, policies, nil
}

func (s *Server) prepareCluster(dec *json.Decoder) (preparation, error) {
	var req api.ClusterRequest
	if err := dec.Decode(&req); err != nil {
		return preparation{}, fmt.Errorf("decode: %w", err)
	}
	spec, policies, err := clusterSpec(req)
	if err != nil {
		return preparation{}, err
	}
	keyParts := append([]string{"cluster"}, cluster.CanonicalSpecs(spec, policies)...)
	return preparation{
		key: model.ScenarioKey(keyParts...),
		run: func(ctx context.Context) (any, error) {
			ctx, agg := s.record(ctx)
			resp := api.ClusterResponse{
				DurationS: spec.Duration.Seconds(),
				WarmupS:   spec.Warmup.Seconds(),
				Seed:      spec.Seed,
			}
			results, err := cluster.SimulatePolicies(ctx, spec, policies)
			if err != nil {
				return nil, err
			}
			for _, res := range results {
				resp.Policies = append(resp.Policies, policyBody(res))
			}
			resp.Solver = solverBody(agg.Stats())
			return resp, nil
		},
	}, nil
}

func policyBody(res cluster.Result) api.ClusterPolicyBody {
	body := api.ClusterPolicyBody{
		Policy:    res.Policy.String(),
		Events:    res.Events,
		EventHash: fmt.Sprintf("%016x", res.EventHash),
		Fairness:  res.Fairness,
	}
	for _, tm := range res.Tenants {
		body.Tenants = append(body.Tenants, api.ClusterTenantBody{
			Name:       tm.Name,
			Offered:    tm.Offered,
			Completed:  tm.Completed,
			Shed:       tm.Shed,
			OfferedRPS: tm.OfferedRPS,
			GoodputRPS: tm.GoodputRPS,
			ShedRate:   tm.ShedRate,
			P50MS:      tm.P50.Nanoseconds() / 1e6,
			P95MS:      tm.P95.Nanoseconds() / 1e6,
			P99MS:      tm.P99.Nanoseconds() / 1e6,
			MeanMS:     tm.Mean.Nanoseconds() / 1e6,
		})
	}
	for _, hm := range res.Hosts {
		body.Hosts = append(body.Hosts, api.ClusterHostBody{
			Name:        hm.Name,
			Completions: hm.Completions,
			Shed:        hm.Shed,
			Utilization: hm.Utilization,
			PeakQueue:   hm.PeakQueue,
		})
	}
	return body
}
