package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"repro/api"
	"repro/internal/model"
)

const (
	pathEvaluate = "/v1/evaluate"
	pathTopology = "/v1/evaluate/topology"
	pathCluster  = "/v1/cluster/simulate"
)

// Stream tags keep the seeded streams of different inputs apart.
const (
	streamHot uint64 = iota + 1
	streamCold
	streamSchedule
	streamFleet
	streamLadder
)

// hotScenarios are the six /v1/evaluate bodies of the reference
// three-client mix, written out here so that a change to internal/workgen
// cannot change the load. Each weight is the client's rate share (4/2/1
// of 7) times the scenario's weight within the client.
var hotScenarios = []struct {
	weight float64
	req    api.EvaluateRequest
}{
	{4.0 / 7 * 3 / 4, api.EvaluateRequest{Params: api.ParamsSpec{Class: "bigdata"}}},
	{4.0 / 7 * 1 / 4, api.EvaluateRequest{Params: api.ParamsSpec{Class: "bigdata"}, Platform: api.PlatformSpec{CompulsoryNS: 135}}},
	{2.0 / 7 * 3 / 4, api.EvaluateRequest{Params: api.ParamsSpec{Class: "enterprise"}}},
	{2.0 / 7 * 1 / 4, api.EvaluateRequest{Params: api.ParamsSpec{Class: "enterprise"}, Platform: api.PlatformSpec{PeakGBps: 68}}},
	{1.0 / 7 * 2 / 3, api.EvaluateRequest{Params: api.ParamsSpec{Class: "hpc"}}},
	{1.0 / 7 * 1 / 3, api.EvaluateRequest{Params: api.ParamsSpec{Class: "hpc"}, Platform: api.PlatformSpec{CompulsoryNS: 120}}},
}

// hotBodies are the marshalled hotScenarios.
var hotBodies = func() []request {
	out := make([]request, len(hotScenarios))
	for i, s := range hotScenarios {
		out[i] = request{path: pathEvaluate, body: mustJSON(s.req)}
	}
	return out
}()

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain wire structs are marshalled here
	}
	return b
}

// hotRequests draws n requests from the reference mix. The draws for a
// (seed, start) pair are always the same.
func hotRequests(seed uint64, start, n int) []request {
	r := newRNG(seed, streamHot, uint64(start))
	out := make([]request, n)
	for i := range out {
		u, k := r.float(), 0
		for k < len(hotScenarios)-1 && u >= hotScenarios[k].weight {
			u -= hotScenarios[k].weight
			k++
		}
		out[i] = hotBodies[k]
	}
	return out
}

// coldRequests returns requests start..start+n-1 of the seed's stream of
// distinct valid scenarios.
func coldRequests(seed uint64, start, n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = coldRequest(seed, start+i)
	}
	return out
}

// coldRequest is request i of the seed's cold stream: half /v1/evaluate
// with class-based or custom params on a drawn platform, half
// /v1/evaluate/topology over the three split policies. Every field is a
// continuous draw, so no two requests share a scenario key.
func coldRequest(seed uint64, i int) request {
	r := newRNG(seed, streamCold, uint64(i))
	params := drawParams(r)
	if r.intn(2) == 0 {
		return request{path: pathEvaluate, body: mustJSON(api.EvaluateRequest{Params: params, Platform: drawPlatform(r)})}
	}
	return request{path: pathTopology, body: mustJSON(api.TopologyRequest{Params: params, Topology: drawTopology(r)})}
}

var classes = []string{"bigdata", "enterprise", "hpc"}

func drawParams(r *rng) api.ParamsSpec {
	if r.intn(2) == 0 {
		// A class with some components overridden; CPICache always is,
		// so the scenario differs from the class mean.
		ps := api.ParamsSpec{Class: classes[r.intn(len(classes))], CPICache: r.between(0.5, 2.5)}
		if r.intn(2) == 0 {
			ps.BF = r.between(0.05, 0.9)
		}
		if r.intn(2) == 0 {
			ps.MPKI = r.between(0.5, 30)
		}
		if r.intn(2) == 0 {
			ps.WBR = r.between(0.05, 1)
		}
		return ps
	}
	ps := api.ParamsSpec{
		Name:     "custom",
		CPICache: r.between(0.4, 2.5),
		BF:       r.between(0.05, 0.95),
		MPKI:     r.between(0.2, 40),
		WBR:      r.between(0.01, 1.2),
	}
	if r.intn(4) == 0 {
		ps.IOPI = r.between(1e-5, 2e-3)
		ps.IOSZ = r.between(512, 65536)
	}
	return ps
}

var coreCounts = []int{4, 8, 12, 16, 24}

func drawCurve(r *rng) api.CurveSpec {
	return api.CurveSpec{Type: []string{"mm1", "md1"}[r.intn(2)], ServiceNS: r.between(3, 10), ULimit: r.between(0.9, 0.98)}
}

func drawPlatform(r *rng) api.PlatformSpec {
	cores := coreCounts[r.intn(len(coreCounts))]
	pl := api.PlatformSpec{
		Cores:        cores,
		Threads:      cores * (1 + r.intn(2)),
		GHz:          r.between(1.8, 3.6),
		CompulsoryNS: r.between(50, 150),
		Queue:        drawCurve(r),
	}
	if r.intn(2) == 0 {
		pl.PeakGBps = r.between(15, 150)
	} else {
		pl.Channels = 2 + 2*r.intn(4)
		pl.GradeMTs = []int{1333, 1600, 1867, 2133, 2400}[r.intn(5)]
		pl.Efficiency = r.between(0.5, 0.9)
	}
	return pl
}

func drawTier(r *rng, k int) api.TopologyTierSpec {
	return api.TopologyTierSpec{
		Name:         fmt.Sprintf("t%d", k),
		CompulsoryNS: r.between(40, 250),
		PeakGBps:     r.between(10, 200),
		Efficiency:   r.between(0.5, 1),
		Queue:        drawCurve(r),
	}
}

func drawTopology(r *rng) api.TopologySpec {
	cores := coreCounts[r.intn(len(coreCounts))]
	ts := api.TopologySpec{Cores: cores, Threads: cores * (1 + r.intn(2)), GHz: r.between(1.8, 3.6)}
	switch r.intn(3) {
	case 0:
		ts.Policy = "fractions"
		n := 1 + r.intn(3)
		w := make([]float64, n)
		sum := 0.0
		for k := range w {
			w[k] = r.between(0.1, 1)
			sum += w[k]
		}
		for k := range w {
			t := drawTier(r, k)
			t.Share = w[k] / sum
			ts.Tiers = append(ts.Tiers, t)
		}
	case 1:
		ts.Policy = "interleave"
		for k := 0; k < 2+r.intn(2); k++ {
			t := drawTier(r, k)
			t.Share = r.between(0.5, 4)
			ts.Tiers = append(ts.Tiers, t)
		}
	default:
		ts.Policy = "local-remote"
		ts.RemoteFraction = r.float()
		local, link := drawTier(r, 0), drawTier(r, 1)
		link.CompulsoryNS = r.between(20, 100) // the remote adder
		link.PeakGBps = r.between(10, 40)
		ts.Tiers = []api.TopologyTierSpec{local, link}
	}
	return ts
}

// decoded is a request body materialized the way memmodeld does it.
type decoded struct {
	topology bool
	params   model.Params
	platform model.Platform
	top      model.Topology
}

// decodeRequest decodes and validates a /v1/evaluate or
// /v1/evaluate/topology body through the api package.
func decodeRequest(rq request) (decoded, error) {
	dec := json.NewDecoder(bytes.NewReader(rq.body))
	dec.DisallowUnknownFields()
	switch rq.path {
	case pathEvaluate:
		var req api.EvaluateRequest
		if err := dec.Decode(&req); err != nil {
			return decoded{}, err
		}
		p, err := req.Params.Params()
		if err != nil {
			return decoded{}, err
		}
		pl, err := req.Platform.Platform()
		return decoded{params: p, platform: pl}, err
	case pathTopology:
		var req api.TopologyRequest
		if err := dec.Decode(&req); err != nil {
			return decoded{}, err
		}
		p, err := req.Params.Params()
		if err != nil {
			return decoded{}, err
		}
		top, err := req.Topology.Topology()
		return decoded{topology: true, params: p, top: top}, err
	}
	return decoded{}, fmt.Errorf("no decoder for %s", rq.path)
}

// key is the scenario cache key memmodeld derives for d.
func (d decoded) key() string {
	if d.topology {
		return model.ScenarioKey("topology", model.CanonicalParams(d.params), model.CanonicalTopology(d.top))
	}
	return model.ScenarioKey("evaluate", model.CanonicalParams(d.params), model.CanonicalPlatform(d.platform))
}

// evaluate solves d in process and returns the reply memmodeld should
// send, without the solver telemetry.
func (d decoded) evaluate(ctx context.Context) (any, error) {
	if d.topology {
		pt, err := model.EvaluateTopology(ctx, d.params, d.top)
		if err != nil {
			return nil, err
		}
		resp := api.TopologyResponse{
			Workload:       d.params.Name,
			Platform:       d.top.Name,
			Policy:         d.top.Policy.String(),
			CPI:            pt.CPI,
			EffectiveNS:    pt.EffectiveMP.Nanoseconds(),
			BandwidthBound: pt.BandwidthBound,
			Limiter:        pt.Limiter,
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
	}
	op, err := model.Evaluate(ctx, d.params, d.platform)
	if err != nil {
		return nil, err
	}
	return api.EvaluateResponse{
		Workload: d.params.Name,
		Platform: d.platform.Name,
		Point: api.OperatingPointBody{
			CPI:            op.CPI,
			MissPenaltyNS:  op.MissPenalty.Nanoseconds(),
			QueueNS:        op.QueueDelay.Nanoseconds(),
			DemandGBps:     op.Demand.GBps(),
			DeliveredGBps:  op.Delivered.GBps(),
			Utilization:    op.Utilization,
			BandwidthBound: op.BandwidthBound,
			ThroughputGIPS: op.Throughput(d.platform) / 1e9,
		},
	}, nil
}

// checkReply compares memmodeld's reply to rq against an in-process
// evaluation of the same body. Solver telemetry and the cached flag are
// not compared: a cached reply replays the first solve's telemetry.
func checkReply(ctx context.Context, rq request, reply []byte) error {
	d, err := decodeRequest(rq)
	if err != nil {
		return fmt.Errorf("decode request: %w", err)
	}
	want, err := d.evaluate(ctx)
	if err != nil {
		return fmt.Errorf("evaluate in process: %w", err)
	}
	var got any
	switch want.(type) {
	case api.TopologyResponse:
		var r api.TopologyResponse
		err = json.Unmarshal(reply, &r)
		r.Solver, r.Cached = api.SolverBody{}, false
		got = r
	case api.EvaluateResponse:
		var r api.EvaluateResponse
		err = json.Unmarshal(reply, &r)
		r.Solver, r.Cached = api.SolverBody{}, false
		got = r
	}
	if err != nil {
		return fmt.Errorf("decode reply: %w", err)
	}
	if !bytes.Equal(mustJSON(got), mustJSON(want)) {
		return fmt.Errorf("reply differs from in-process evaluation:\n got %s\nwant %s", mustJSON(got), mustJSON(want))
	}
	return nil
}
