package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"repro/api"
	"repro/internal/model"
	"repro/internal/version"
)

// endpoint names, also the /metrics labels.
const (
	epEvaluate = "evaluate"
	epTopology = "topology"
	epSweep    = "sweep"
	epCluster  = "cluster"
	epWorkload = "workload"
)

// maxBodyBytes bounds request bodies; a measured curve with thousands
// of points still fits comfortably.
const maxBodyBytes = 1 << 20

// Caps on sweep fan-out so one request cannot monopolize the daemon.
const (
	maxSweepSteps    = 2048
	maxSweepClasses  = 64
	maxSweepVariants = 1024
)

// Server is the model-evaluation service: the JSON evaluation, sweep,
// fleet and workload endpoints over the model's evaluator, fronted
// by the scenario cache and the admission controller, plus /healthz
// and /metrics. An
// optional fault-injection middleware (WithFaults) manufactures
// deterministic chaos on the /v1 endpoints.
type Server struct {
	cfg     config
	cache   *Cache
	adm     *Admission
	metrics *Metrics
	faults  *faultInjector
	clock   Clock

	draining atomic.Bool

	// testHookSolve, when set, runs at the start of every cold solve —
	// the test seam for exercising singleflight, shedding, and drain.
	testHookSolve func()
}

// New builds a Server. The zero-option call serves with production
// defaults; see WithCacheSize, WithAdmission, WithRequestTimeout,
// WithFaults, and WithClock.
func New(opts ...Option) *Server {
	cfg := defaults()
	for _, o := range opts {
		o(&cfg)
	}
	return &Server{
		cfg:     cfg,
		cache:   NewCache(cfg.cacheSize),
		adm:     NewAdmission(cfg.maxConcurrent, cfg.maxQueue),
		metrics: newMetrics([]string{epEvaluate, epTopology, epSweep, epCluster, epWorkload}),
		faults:  newFaultInjector(cfg.faults),
		clock:   cfg.clock,
	}
}

// Handler returns the daemon's HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/evaluate", s.post(epEvaluate, s.prepareEvaluate))
	mux.HandleFunc("/v1/evaluate/topology", s.post(epTopology, s.prepareTopology))
	mux.HandleFunc("/v1/sweep", s.post(epSweep, s.prepareSweep))
	mux.HandleFunc("/v1/cluster/simulate", s.post(epCluster, s.prepareCluster))
	mux.HandleFunc("/v1/workload/validate", s.post(epWorkload, s.prepareWorkload))
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// Drain flips the server into draining mode: /healthz starts reporting
// 503 so load balancers stop routing here, while in-flight requests run
// to completion (the HTTP shutdown itself is the caller's http.Server's
// job). Draining is one-way.
func (s *Server) Drain() { s.draining.Store(true) }

// StatsLine renders a one-line operational summary — the "flush stats"
// record the daemon prints after a graceful drain.
func (s *Server) StatsLine() string {
	cs, as, st := s.cache.Stats(), s.adm.Stats(), s.metrics.Solver.Stats()
	line := fmt.Sprintf(
		"cache %d hits / %d shared / %d misses / %d evictions (hit ratio %.1f%%); admitted %d, shed %d; solver %d solves, %d iterations, %d bandwidth-limited, worst residual %.2g",
		cs.Hits, cs.Shared, cs.Misses, cs.Evictions, 100*cs.HitRatio(),
		as.Admitted, as.Shed, st.Solves, st.Iterations, st.BandwidthLimited, st.MaxResidual)
	if s.faults != nil {
		fs := s.faults.Stats()
		line += fmt.Sprintf("; faults injected: %d latency, %d error, %d unavailable, %d drop",
			fs.Latencies, fs.Errors, fs.Unavailable, fs.Drops)
	}
	return line
}

// preparation is a validated request ready to evaluate: the canonical
// cache key and the cold-solve closure that produces the response body.
type preparation struct {
	key string
	run func(ctx context.Context) (any, error)
}

// prepareFunc decodes and validates one endpoint's request body.
type prepareFunc func(dec *json.Decoder) (preparation, error)

// markCached sets the Cached flag on a response served from the cache.
// The response types are defined in repro/api (and so cannot carry
// serve-side methods), so this is a type switch over the copies rather
// than an interface; a new endpoint's response type must be added here.
func markCached(v any) any {
	switch r := v.(type) {
	case api.EvaluateResponse:
		r.Cached = true
		return r
	case api.TopologyResponse:
		r.Cached = true
		return r
	case api.SweepResponse:
		r.Cached = true
		return r
	case api.ClusterResponse:
		r.Cached = true
		return r
	case api.WorkloadValidateResponse:
		r.Cached = true
		return r
	default:
		return v
	}
}

// post wraps one endpoint: fault injection (when armed), method check,
// bounded decode, admission, per-request deadline, cached evaluation,
// and error mapping, with the endpoint's latency and status recorded on
// the way out.
func (s *Server) post(name string, prepare prepareFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		status := http.StatusOK
		defer func() { s.metrics.endpoint(name).record(status, time.Since(t0)) }()

		if s.faults != nil {
			act := s.faults.roll()
			if act.delay > 0 {
				s.clock.Sleep(r.Context(), act.delay)
			}
			switch act.outcome {
			case faultError:
				status = http.StatusInternalServerError
				writeError(w, status, api.CodeFaultInjected, "injected internal error", nil)
				return
			case faultUnavailable:
				status = http.StatusServiceUnavailable
				writeError(w, status, api.CodeFaultInjected, "injected unavailable", nil)
				return
			case faultDrop:
				// Sever the connection with no response: net/http aborts
				// cleanly on ErrAbortHandler, the client sees a transport
				// error.
				status = http.StatusInternalServerError
				panic(http.ErrAbortHandler)
			}
		}

		if r.Method != http.MethodPost {
			status = http.StatusMethodNotAllowed
			writeError(w, status, api.CodeMethodNotAllowed, "POST only", nil)
			return
		}
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		dec.DisallowUnknownFields()
		prep, err := prepare(dec)
		if err != nil {
			var code string
			status, code = classify(err)
			if code == api.CodeInternal {
				// Decode failures carry no sentinel; they are the caller's
				// malformed body, not our fault.
				status, code = http.StatusBadRequest, api.CodeBadRequest
			}
			writeError(w, status, code, err.Error(), nil)
			return
		}

		release, err := s.adm.Acquire(r.Context())
		if err != nil {
			var code string
			status, code = classify(err)
			writeError(w, status, code, err.Error(), nil)
			return
		}
		defer release()

		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.requestTimeout)
		defer cancel()

		val, cached, err := s.cache.Do(ctx, prep.key, func() (any, error) {
			if s.testHookSolve != nil {
				s.testHookSolve()
			}
			return prep.run(ctx)
		})
		if err != nil {
			var code string
			status, code = classify(err)
			writeError(w, status, code, err.Error(), nil)
			return
		}
		if cached {
			val = markCached(val)
		}
		writeJSON(w, http.StatusOK, val)
	}
}

// record returns a context whose solves record on the process-wide
// aggregate and on a fresh per-request aggregate, which fills the
// response's solver body.
func (s *Server) record(ctx context.Context) (context.Context, *model.Aggregate) {
	agg := &model.Aggregate{}
	return model.WithSolverStats(ctx, &s.metrics.Solver, agg), agg
}

func (s *Server) prepareEvaluate(dec *json.Decoder) (preparation, error) {
	var req api.EvaluateRequest
	if err := dec.Decode(&req); err != nil {
		return preparation{}, fmt.Errorf("decode: %w", err)
	}
	p, err := req.Params.Params()
	if err != nil {
		return preparation{}, err
	}
	pl, err := req.Platform.Platform()
	if err != nil {
		return preparation{}, err
	}
	return preparation{
		key: model.ScenarioKey("evaluate", model.CanonicalParams(p), model.CanonicalPlatform(pl)),
		run: func(ctx context.Context) (any, error) {
			ctx, agg := s.record(ctx)
			op, err := model.Evaluate(ctx, p, pl)
			if err != nil {
				return nil, err
			}
			return api.EvaluateResponse{
				Workload: p.Name,
				Platform: pl.Name,
				Point:    pointBody(op, pl),
				Solver:   solverBody(agg.Stats()),
			}, nil
		},
	}, nil
}

func (s *Server) prepareTopology(dec *json.Decoder) (preparation, error) {
	var req api.TopologyRequest
	if err := dec.Decode(&req); err != nil {
		return preparation{}, fmt.Errorf("decode: %w", err)
	}
	p, err := req.Params.Params()
	if err != nil {
		return preparation{}, err
	}
	top, err := req.Topology.Topology()
	if err != nil {
		return preparation{}, err
	}
	return preparation{
		key: model.ScenarioKey("topology", model.CanonicalParams(p), model.CanonicalTopology(top)),
		run: func(ctx context.Context) (any, error) {
			ctx, agg := s.record(ctx)
			pt, err := model.EvaluateTopology(ctx, p, top)
			if err != nil {
				return nil, err
			}
			resp := api.TopologyResponse{
				Workload:       p.Name,
				Platform:       top.Name,
				Policy:         top.Policy.String(),
				CPI:            pt.CPI,
				EffectiveNS:    pt.EffectiveMP.Nanoseconds(),
				BandwidthBound: pt.BandwidthBound,
				Limiter:        pt.Limiter,
				Solver:         solverBody(agg.Stats()),
			}
			for _, t := range pt.Tiers {
				resp.Tiers = append(resp.Tiers, api.TopologyTierPointBody{
					Name:          t.Name,
					MissPenaltyNS: t.MissPenalty.Nanoseconds(),
					DemandGBps:    t.Demand.GBps(),
					DeliveredGBps: t.Delivered.GBps(),
					Utilization:   t.Utilization,
					Saturated:     t.Saturated,
				})
			}
			return resp, nil
		},
	}, nil
}

func (s *Server) prepareSweep(dec *json.Decoder) (preparation, error) {
	var req api.SweepRequest
	if err := dec.Decode(&req); err != nil {
		return preparation{}, fmt.Errorf("decode: %w", err)
	}
	specs := req.Classes
	if len(specs) == 0 {
		specs = []api.ParamsSpec{{Class: "bigdata"}, {Class: "enterprise"}, {Class: "hpc"}}
	}
	if len(specs) > maxSweepClasses {
		return preparation{}, fmt.Errorf("%w: at most %d classes per sweep", model.ErrInvalidParams, maxSweepClasses)
	}
	classes := make([]model.Params, len(specs))
	classKeys := make([]string, len(specs))
	for i, spec := range specs {
		p, err := spec.Params()
		if err != nil {
			return preparation{}, err
		}
		classes[i] = p
		classKeys[i] = model.CanonicalParams(p)
	}
	pl, err := req.Platform.Platform()
	if err != nil {
		return preparation{}, err
	}

	keyParts := append([]string{"sweep", req.Axis, model.CanonicalPlatform(pl)}, classKeys...)
	switch req.Axis {
	case "latency":
		steps, stepNS := req.Steps, req.StepNS
		if steps == 0 {
			steps = 10
		}
		if stepNS == 0 {
			stepNS = 10
		}
		if steps < 1 || steps > maxSweepSteps || stepNS <= 0 {
			return preparation{}, fmt.Errorf("%w: latency sweep needs 1..%d steps of positive step_ns",
				model.ErrInvalidPlatform, maxSweepSteps)
		}
		keyParts = append(keyParts, fmt.Sprintf("steps=%d,stepns=%g", steps, stepNS))
		return preparation{
			key: model.ScenarioKey(keyParts...),
			run: func(ctx context.Context) (any, error) {
				ctx, agg := s.record(ctx)
				sw, err := model.LatencySweep(ctx, pl, classes, steps, stepNS)
				if err != nil {
					return nil, err
				}
				return sweepResponse("latency", sw, agg.Stats()), nil
			},
		}, nil
	case "bandwidth":
		variants := model.PaperBandwidthVariants()
		if len(req.Variants) > 0 {
			if len(req.Variants) > maxSweepVariants {
				return preparation{}, fmt.Errorf("%w: at most %d variants per sweep",
					model.ErrInvalidPlatform, maxSweepVariants)
			}
			variants = variants[:0]
			for i, v := range req.Variants {
				if v.Channels < 1 || v.GradeMTs < 1 || v.Efficiency <= 0 || v.Efficiency > 1 {
					return preparation{}, fmt.Errorf("%w: variant %d out of range", model.ErrInvalidPlatform, i)
				}
				label := v.Label
				if label == "" {
					label = fmt.Sprintf("%dch DDR-%d @%.0f%%", v.Channels, v.GradeMTs, v.Efficiency*100)
				}
				variants = append(variants, model.BandwidthVariant{
					Label: label, Channels: v.Channels, ChannelMTs: v.GradeMTs, Efficiency: v.Efficiency,
				})
			}
		}
		for _, v := range variants {
			keyParts = append(keyParts, fmt.Sprintf("ch=%d,mts=%d,eff=%g", v.Channels, v.ChannelMTs, v.Efficiency))
		}
		return preparation{
			key: model.ScenarioKey(keyParts...),
			run: func(ctx context.Context) (any, error) {
				ctx, agg := s.record(ctx)
				sw, err := model.BandwidthSweep(ctx, pl, classes, variants)
				if err != nil {
					return nil, err
				}
				return sweepResponse("bandwidth", sw, agg.Stats()), nil
			},
		}, nil
	default:
		return preparation{}, fmt.Errorf("%w: sweep axis must be \"latency\" or \"bandwidth\", got %q",
			model.ErrInvalidPlatform, req.Axis)
	}
}

func sweepResponse(axis string, sw model.Sweep, st model.Stats) api.SweepResponse {
	resp := api.SweepResponse{Axis: axis, Solver: solverBody(st)}
	for _, pt := range sw.Points {
		body := api.SweepPointBody{
			Platform:    pt.Platform.Name,
			Delta:       pt.DeltaPerCore,
			CPI:         map[string]float64{},
			CPIIncrease: map[string]float64{},
		}
		for name, op := range pt.Ops {
			body.CPI[name] = op.CPI
		}
		for name, inc := range pt.CPIIncrease {
			body.CPIIncrease[name] = inc
		}
		resp.Points = append(resp.Points, body)
	}
	return resp
}

// healthBody is the /healthz reply.
type healthBody struct {
	Status        string  `json:"status"`
	Version       string  `json:"version"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	InFlight      int64   `json:"inflight"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "GET only", nil)
		return
	}
	body := healthBody{
		Status:        "ok",
		Version:       version.String(),
		UptimeSeconds: time.Since(s.metrics.start).Seconds(),
		InFlight:      s.adm.Stats().InFlight,
	}
	status := http.StatusOK
	if s.draining.Load() {
		body.Status = "draining"
		status = http.StatusServiceUnavailable
		setRetryAfter(w.Header(), status)
	}
	writeJSON(w, status, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed, "GET only", nil)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.render(w, s.cache.Stats(), s.adm.Stats(), s.faults.Stats(), s.draining.Load())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the client hanging up mid-body is not actionable
}
