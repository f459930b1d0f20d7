package serve

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/api"
	"repro/internal/model"
	"repro/internal/workgen"
)

// prepareWorkload backs POST /v1/workload/validate: a dry run that
// compiles a workload spec, generates its deterministic arrival trace
// (without sending any traffic), and predicts the KPIs the workload
// would observe against this daemon under an assumed unloaded service
// time. Live calibration — measuring that service time instead of
// assuming it — is memmodelctl loadgen's job.
func (s *Server) prepareWorkload(dec *json.Decoder) (preparation, error) {
	var req api.WorkloadValidateRequest
	if err := dec.Decode(&req); err != nil {
		return preparation{}, fmt.Errorf("decode: %w", err)
	}
	spec, err := workgen.Compile(req.Spec)
	if err != nil {
		return preparation{}, err
	}
	if req.ServiceUS < 0 {
		return preparation{}, fmt.Errorf("%w: service_us must be non-negative", model.ErrInvalidParams)
	}
	if req.Slots < 0 {
		return preparation{}, fmt.Errorf("%w: slots must be non-negative", model.ErrInvalidParams)
	}
	serviceUS := req.ServiceUS
	if serviceUS == 0 {
		serviceUS = 200
	}
	slots := req.Slots
	if slots == 0 {
		slots = s.cfg.maxConcurrent
	}
	return preparation{
		key: model.ScenarioKey(workloadKeyParts(spec, serviceUS, slots)...),
		run: func(ctx context.Context) (any, error) {
			ctx, agg := s.record(ctx)
			tr := spec.Trace()
			pred, err := workgen.Predict(ctx, spec, tr, workgen.Calibration{
				Default: serviceUS * 1e-6,
				Slots:   slots,
			})
			if err != nil {
				return nil, err
			}
			resp := api.WorkloadValidateResponse{
				Name:      spec.Name,
				Seed:      spec.Seed,
				DurationS: spec.Duration,
				Arrivals:  len(tr.Arrivals),
				TraceHash: tr.HashHex(),
				Solver:    solverBody(agg.Stats()),
			}
			for _, k := range pred.KPIs {
				resp.Clients = append(resp.Clients, api.WorkloadKPIBody{
					Name:          k.Name,
					OfferedRPS:    k.OfferedRPS,
					ThroughputRPS: k.ThroughputRPS,
					MeanMS:        k.MeanMS,
					P95MS:         k.P95MS,
					P99MS:         k.P99MS,
					ShedRate:      k.ShedRate,
					Utilization:   k.Utilization,
				})
			}
			for _, sc := range pred.Scenarios {
				resp.Scenarios = append(resp.Scenarios, api.WorkloadScenarioBody{
					Name:           sc.Name,
					Weight:         sc.Weight,
					CPI:            sc.CPI,
					BandwidthBound: sc.BandwidthBound,
					Key:            sc.Key,
				})
			}
			return resp, nil
		},
	}, nil
}

// workloadKeyParts folds the compiled workload plus the prediction
// assumptions into canonical cache-key parts: every field that can move
// the trace or the prediction is included.
func workloadKeyParts(spec *workgen.Spec, serviceUS float64, slots int) []string {
	parts := []string{
		"workload",
		fmt.Sprintf("name=%s|rps=%g|dur=%g|warm=%g|seed=%d|svc_us=%g|slots=%d",
			spec.Name, spec.TotalRPS, spec.Duration, spec.Warmup, spec.Seed, serviceUS, slots),
	}
	for _, c := range spec.Clients {
		part := fmt.Sprintf("client=%s|rate=%g|proc=%s|shape=%g",
			c.Name, c.Rate, c.Arrival.Process, c.Arrival.Shape)
		for _, sc := range c.Scenarios {
			part += fmt.Sprintf("|scen=%s:%g:%s", sc.Name, sc.Weight, sc.Key)
		}
		parts = append(parts, part)
	}
	return parts
}
