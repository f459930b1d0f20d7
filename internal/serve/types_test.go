package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

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

// FuzzDecodeRequests feeds arbitrary bodies through the same decode +
// validate + canonicalize path the daemon uses: whatever the bytes,
// the pipeline must return an error or a usable preparation — never
// panic. Solving itself is excluded to keep fuzz iterations cheap.
func FuzzDecodeRequests(f *testing.F) {
	f.Add([]byte(`{"params":{"class":"bigdata"},"platform":{}}`))
	f.Add([]byte(`{"params":{"cpi_cache":1.2,"bf":0.4,"mpki":8},"platform":{"cores":16,"peak_gbps":60}}`))
	f.Add([]byte(`{"params":{},"topology":{"tiers":[{"share":1,"compulsory_ns":75,"peak_gbps":42}]}}`))
	f.Add([]byte(`{"axis":"latency","steps":3,"step_ns":10,"platform":{}}`))
	f.Add([]byte(`{"params":{"class":"bigdata"},"platform":{"queue":{"type":"measured","points":[{"utilization":0,"delay_ns":0},{"utilization":1,"delay_ns":90}]}}}`))
	f.Add([]byte(`{"params":{"mpki":-1}}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"params":{"class":"bigdata"},"platform":{"ghz":-3}}`))
	f.Add([]byte(`{"duration_s":1,"policies":["weighted","round-robin"],"seed":7,"rate_scale":1.5}`))
	f.Add([]byte(`{"spec":{"name":"mix","total_rps":2000,"duration_s":5,"seed":42},"service_us":150,"slots":8}`))

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

func jsonDecoder(body []byte) *json.Decoder {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec
}
