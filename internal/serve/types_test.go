package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/api"
	"repro/internal/model"
	"repro/internal/params"
	"repro/internal/units"
)

func TestRequestJSONRoundTrip(t *testing.T) {
	cases := []any{
		api.EvaluateRequest{
			Params:   api.ParamsSpec{Class: "bigdata", MPKI: 7.5},
			Platform: api.PlatformSpec{Cores: 16, GHz: 3.0, CompulsoryNS: 90, PeakGBps: 60},
		},
		api.TopologyRequest{
			Params: api.ParamsSpec{CPICache: 1.0, BF: 0.3, MPKI: 5},
			Topology: api.TopologySpec{Tiers: []api.TopologyTierSpec{
				{Name: "near", Share: 0.8, CompulsoryNS: 75, PeakGBps: 42},
				{Name: "far", Share: 0.2, CompulsoryNS: 300, PeakGBps: 10, Efficiency: 0.8,
					Queue: api.CurveSpec{Type: "md1", ServiceNS: 12}},
			}},
		},
		api.TopologyRequest{
			Params: api.ParamsSpec{Class: "enterprise"},
			Topology: api.TopologySpec{Policy: "local-remote", RemoteFraction: 0.5, Tiers: []api.TopologyTierSpec{
				{Name: "dram", CompulsoryNS: 75, PeakGBps: 42},
				{Name: "link", CompulsoryNS: 60, PeakGBps: 25},
			}},
		},
		api.SweepRequest{
			Classes:  []api.ParamsSpec{{Class: "hpc"}},
			Platform: api.PlatformSpec{},
			Axis:     "latency", Steps: 5, StepNS: 20,
		},
		api.SweepRequest{
			Axis:     "bandwidth",
			Variants: []api.BandwidthVariantSpec{{Channels: 2, GradeMTs: 1600, Efficiency: 0.72}},
		},
	}
	for _, in := range cases {
		blob, err := json.Marshal(in)
		if err != nil {
			t.Fatalf("marshal %T: %v", in, err)
		}
		out := reflect.New(reflect.TypeOf(in))
		if err := json.Unmarshal(blob, out.Interface()); err != nil {
			t.Fatalf("unmarshal %T: %v", in, err)
		}
		if got := out.Elem().Interface(); !reflect.DeepEqual(got, in) {
			t.Errorf("%T round trip:\n got %+v\nwant %+v", in, got, in)
		}
	}
}

func TestEmptyPlatformSpecIsBaseline(t *testing.T) {
	pl, err := api.PlatformSpec{}.Platform()
	if err != nil {
		t.Fatal(err)
	}
	b := params.Baseline()
	if pl.Cores != b.Cores || pl.Threads != b.Cores*b.ThreadsPerCore {
		t.Errorf("cores/threads = %d/%d, want %d/%d", pl.Cores, pl.Threads, b.Cores, b.Cores*b.ThreadsPerCore)
	}
	if pl.Compulsory != b.Compulsory {
		t.Errorf("compulsory = %v, want %v", pl.Compulsory, b.Compulsory)
	}
	if pl.PeakBW != b.EffectiveBandwidth() {
		t.Errorf("peak = %v, want %v", pl.PeakBW, b.EffectiveBandwidth())
	}
}

func TestParamsSpecClassAndOverrides(t *testing.T) {
	p, err := api.ParamsSpec{Class: "bigdata"}.Params()
	if err != nil {
		t.Fatal(err)
	}
	if p.CPICache != params.Table6[1].CPICache {
		t.Errorf("class cpi_cache = %v, want Table 6 mean %v", p.CPICache, params.Table6[1].CPICache)
	}
	over, err := api.ParamsSpec{Class: "bigdata", MPKI: 9.9}.Params()
	if err != nil {
		t.Fatal(err)
	}
	if over.MPKI != 9.9 || over.CPICache != p.CPICache {
		t.Errorf("override: MPKI=%v CPICache=%v, want 9.9 and the class mean", over.MPKI, over.CPICache)
	}
}

func TestSpecValidationSentinels(t *testing.T) {
	if _, err := (api.ParamsSpec{Class: "nope"}).Params(); !errors.Is(err, model.ErrInvalidParams) {
		t.Errorf("unknown class: err = %v, want ErrInvalidParams", err)
	}
	if _, err := (api.ParamsSpec{CPICache: -1}).Params(); !errors.Is(err, model.ErrInvalidParams) {
		t.Errorf("negative cpi_cache: err = %v, want ErrInvalidParams", err)
	}
	if _, err := (api.PlatformSpec{Queue: api.CurveSpec{Type: "nope"}}).Platform(); !errors.Is(err, model.ErrInvalidPlatform) {
		t.Errorf("unknown curve: err = %v, want ErrInvalidPlatform", err)
	}
	if _, err := (api.PlatformSpec{Cores: -4}).Platform(); !errors.Is(err, model.ErrInvalidPlatform) {
		t.Errorf("negative cores: err = %v, want ErrInvalidPlatform", err)
	}
	if _, err := (api.TopologySpec{}).Topology(); !errors.Is(err, model.ErrInvalidPlatform) {
		t.Errorf("no tiers: err = %v, want ErrInvalidPlatform", err)
	}
	numa := api.TopologySpec{Policy: "numa", RemoteFraction: 2, Tiers: []api.TopologyTierSpec{
		{CompulsoryNS: 75, PeakGBps: 42}, {CompulsoryNS: 60, PeakGBps: 25}}}
	if _, err := numa.Topology(); !errors.Is(err, model.ErrInvalidPlatform) {
		t.Errorf("remote fraction 2: err = %v, want ErrInvalidPlatform", err)
	}
}

func TestMeasuredCurveSpec(t *testing.T) {
	cs := api.CurveSpec{Type: "measured", Points: []api.CurvePoint{
		{Utilization: 0, DelayNS: 0},
		{Utilization: 0.5, DelayNS: 10},
		{Utilization: 0.95, DelayNS: 80},
	}}
	c, err := cs.Curve()
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Delay(0.5); got != 10*units.Nanosecond {
		t.Errorf("Delay(0.5) = %v, want 10ns", got)
	}
	if _, err := (api.CurveSpec{Type: "measured"}).Curve(); !errors.Is(err, model.ErrInvalidPlatform) {
		t.Errorf("measured with no points: err = %v, want ErrInvalidPlatform", err)
	}
}

// fuzzBodies seeds the request fuzz targets: one valid body per
// endpoint, a measured curve, and malformed, invalid and
// out-of-range ones.
var fuzzBodies = []string{
	`{"params":{"class":"bigdata"},"platform":{}}`,
	`{"params":{"cpi_cache":1.2,"bf":0.4,"mpki":8},"platform":{"cores":16,"peak_gbps":60}}`,
	`{"params":{},"topology":{"tiers":[{"share":1,"compulsory_ns":75,"peak_gbps":42}]}}`,
	`{"axis":"latency","steps":3,"step_ns":10,"platform":{}}`,
	`{"params":{"class":"bigdata"},"platform":{"queue":{"type":"measured","points":[{"utilization":0,"delay_ns":0},{"utilization":1,"delay_ns":90}]}}}`,
	`{"params":{"mpki":-1}}`,
	`{`,
	`null`,
	`{"params":{"class":"bigdata"},"platform":{"ghz":-3}}`,
	`{"duration_s":1,"policies":["weighted","round-robin"],"seed":7,"rate_scale":1.5}`,
	`{"spec":{"name":"mix","total_rps":2000,"duration_s":5,"seed":42},"service_us":150,"slots":8}`,
}

// FuzzDecodeRequests feeds arbitrary bodies through the same decode +
// validate + canonicalize path the daemon uses: whatever the bytes,
// the pipeline must return an error or a usable preparation — never
// panic. Solving itself is FuzzRunRequests' job.
func FuzzDecodeRequests(f *testing.F) {
	for _, b := range fuzzBodies {
		f.Add([]byte(b))
	}
	s := New()
	preps := []prepareFunc{s.prepareEvaluate, s.prepareTopology, s.prepareSweep, s.prepareCluster, s.prepareWorkload}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, prepare := range preps {
			prep, err := prepare(jsonDecoder(body))
			if err != nil {
				continue
			}
			if prep.key == "" {
				t.Error("accepted request produced an empty cache key")
			}
			if prep.run == nil {
				t.Error("accepted request produced a nil run closure")
			}
		}
	})
}

// FuzzRunRequests runs what each accepted body asks for — the solve,
// sweep, fleet simulation or workload compile behind its endpoint —
// under the 2 s deadline, then again under a cancelled context.
// Whatever the bytes, a run must not panic, must end in a typed error
// (one classify maps to a code other than internal) or in a response
// json.Marshal accepts, and must return promptly once cancelled.
func FuzzRunRequests(f *testing.F) {
	for _, b := range fuzzBodies {
		f.Add([]byte(b))
	}
	s := New()
	preps := []prepareFunc{s.prepareEvaluate, s.prepareTopology, s.prepareSweep, s.prepareCluster, s.prepareWorkload}
	check := func(t *testing.T, what string, val any, err error) {
		t.Helper()
		if err != nil {
			if _, code := classify(err); code == api.CodeInternal {
				t.Errorf("%s: untyped error: %v", what, err)
			}
			return
		}
		if _, err := json.Marshal(val); err != nil {
			t.Errorf("%s: response does not marshal: %v", what, err)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, prepare := range preps {
			prep, err := prepare(jsonDecoder(body))
			if err != nil {
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			val, err := prep.run(ctx)
			cancel()
			check(t, "run", val, err)

			ctx, cancel = context.WithCancel(context.Background())
			cancel()
			type result struct {
				val any
				err error
			}
			done := make(chan result, 1)
			go func() {
				val, err := prep.run(ctx)
				done <- result{val, err}
			}()
			select {
			case r := <-done:
				check(t, "cancelled run", r.val, r.err)
			case <-time.After(2 * time.Second):
				t.Fatal("cancelled run still running after 2 s")
			}
		}
	})
}

func jsonDecoder(body []byte) *json.Decoder {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec
}
