package workgen

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/api"
	"repro/internal/model"
	"repro/internal/trace"
)

// referenceTrace is the generator Stream replaced, kept as the
// differential oracle: draw each client's whole stream, then merge the
// clients with a stable sort keyed by (time, client).
func referenceTrace(s *Spec) []Arrival {
	var out []Arrival
	for ci := range s.Clients {
		c := &s.Clients[ci]
		rng := trace.StreamRNG(s.Seed, ci)
		t := 0.0
		for {
			t += c.Process.Next(rng)
			if t >= s.Duration {
				break
			}
			out = append(out, Arrival{At: t, Client: ci, Scenario: c.draw(rng.Float64())})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.At != b.At {
			return a.At < b.At
		}
		return a.Client < b.Client
	})
	return out
}

// requireReference fails unless spec.Trace() equals the oracle arrival
// for arrival.
func requireReference(t *testing.T, name string, spec *Spec) {
	t.Helper()
	got, want := spec.Trace().Arrivals, referenceTrace(spec)
	if len(got) != len(want) {
		t.Fatalf("%s: %d arrivals, reference %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: arrival %d = %+v, reference %+v", name, i, got[i], want[i])
		}
	}
}

// TestTraceMatchesSortedReference compiles random specs (1–16 clients,
// every process, several shapes, 1–4 weighted scenarios) and requires
// the streamed merge to reproduce the per-client-then-stable-sort
// generator exactly.
func TestTraceMatchesSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	procs := []string{"poisson", "gamma", "weibull"}
	shapes := []float64{0, 0.3, 0.8, 1, 2.5, 8}
	classes := []string{"bigdata", "enterprise", "hpc"}
	for trial := 0; trial < 60; trial++ {
		ws := api.WorkloadSpec{
			TotalRPS:  10 + 1990*rng.Float64(),
			DurationS: 0.2 + 2*rng.Float64(),
			Seed:      rng.Uint64(),
		}
		for c := 1 + rng.Intn(MaxClients); c > 0; c-- {
			cs := api.WorkloadClientSpec{
				Share:   0.1 + 10*rng.Float64(),
				Arrival: api.ArrivalSpec{Process: procs[rng.Intn(3)], Shape: shapes[rng.Intn(len(shapes))]},
			}
			for sc := 1 + rng.Intn(4); sc > 0; sc-- {
				cs.Scenarios = append(cs.Scenarios, api.WorkloadScenarioSpec{
					Weight: 0.5 + 4*rng.Float64(),
					Params: api.ParamsSpec{Class: classes[rng.Intn(3)]},
				})
			}
			ws.Clients = append(ws.Clients, cs)
		}
		requireReference(t, "random spec", mustCompile(t, ws))
	}
}

// constGap is a test-only process with a fixed gap, so clients collide
// on exact timestamps and the (time, client) tie order is exercised.
type constGap float64

func (g constGap) Name() string            { return "const" }
func (g constGap) Next(*trace.RNG) float64 { return float64(g) }
func (g constGap) Mean() float64           { return float64(g) }
func (g constGap) CDF(x float64) float64 {
	if x < float64(g) {
		return 0
	}
	return 1
}

// TestTraceTiesOrderByClient: on equal timestamps the lower client
// index goes first. The clients have no scenario mix, so every arrival
// reports scenario 0.
func TestTraceTiesOrderByClient(t *testing.T) {
	spec := &Spec{Duration: 3, Seed: 5, Clients: []Client{
		{Process: constGap(0.5)},
		{Process: constGap(0.25)},
		{Process: constGap(0.5)},
	}}
	requireReference(t, "equal timestamps", spec)
	want := []Arrival{{At: 0.25, Client: 1}, {At: 0.5, Client: 0}, {At: 0.5, Client: 1}, {At: 0.5, Client: 2}}
	for i, a := range spec.Trace().Arrivals[:len(want)] {
		if a != want[i] {
			t.Fatalf("arrival %d = %+v, want %+v", i, a, want[i])
		}
	}
}

// FuzzCompileTrace fuzzes the workload boundary: whatever Compile
// accepts must generate a trace that ends, is in (time, client) order
// inside [0, Duration), indexes real clients and scenarios, and
// reproduces its hash. Inputs above ~10⁴ expected arrivals are skipped
// to keep each execution fast.
func FuzzCompileTrace(f *testing.F) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
		f.Add(v, 2.0, 0.0, uint64(1), uint8(0), 1.0)
		f.Add(200.0, v, 0.0, uint64(2), uint8(1), 2.0)
		f.Add(200.0, 2.0, v, uint64(3), uint8(2), 0.8)
		f.Add(200.0, 2.0, 0.25, uint64(4), uint8(1), v)
		f.Add(200.0, 2.0, 0.25, uint64(5), uint8(2), v)
	}
	f.Add(200.0, 2.0, 0.25, uint64(42), uint8(2), 0.8)
	f.Fuzz(func(t *testing.T, rate, duration, warmup float64, seed uint64, process uint8, shape float64) {
		procs := []string{"poisson", "gamma", "weibull"}
		spec, err := Compile(api.WorkloadSpec{
			TotalRPS: rate, DurationS: duration, WarmupS: warmup, Seed: seed,
			Clients: []api.WorkloadClientSpec{
				{Share: 2, Arrival: api.ArrivalSpec{Process: procs[int(process)%3], Shape: shape}},
				{Share: 1},
			},
		})
		if err != nil {
			return
		}
		if spec.TotalRPS*spec.Duration > 1e4 {
			t.Skip("too many expected arrivals for one fuzz execution")
		}
		// Drain the stream under the generator's arrival cap first, so a
		// stream that never ends fails instead of hanging.
		st := spec.Stream()
		n := 0
		for _, ok := st.Next(); ok; _, ok = st.Next() {
			if n++; n > MaxArrivals {
				t.Fatalf("stream passed %d arrivals for %g expected", MaxArrivals, spec.TotalRPS*spec.Duration)
			}
		}
		tr := spec.Trace()
		if len(tr.Arrivals) != n {
			t.Fatalf("Trace holds %d arrivals, the stream yielded %d", len(tr.Arrivals), n)
		}
		for i, a := range tr.Arrivals {
			if !(a.At >= 0 && a.At < spec.Duration) {
				t.Fatalf("arrival %d at %g outside [0, %g)", i, a.At, spec.Duration)
			}
			if a.Client < 0 || a.Client >= len(spec.Clients) ||
				a.Scenario < 0 || a.Scenario >= len(spec.Clients[a.Client].Scenarios) {
				t.Fatalf("arrival %d indexes client %d scenario %d", i, a.Client, a.Scenario)
			}
			if i > 0 {
				p := tr.Arrivals[i-1]
				if a.At < p.At || (a.At == p.At && a.Client < p.Client) {
					t.Fatalf("arrival %d %+v after %+v breaks (time, client) order", i, a, p)
				}
			}
		}
		if again := spec.Trace(); again.Hash != tr.Hash {
			t.Fatalf("hash %s then %s", tr.HashHex(), again.HashHex())
		}
	})
}

// FuzzSpecBytes decodes arbitrary bytes into a wire spec the way
// memmodelctl reads a -spec file (unknown fields rejected), then
// compiles it and generates its trace. A body that decodes must end in
// an error wrapping model.ErrInvalidParams or ErrInvalidPlatform, or in
// a trace — never a panic.
func FuzzSpecBytes(f *testing.F) {
	ref, err := json.Marshal(api.WorkloadSpec{Name: "mix", TotalRPS: 200, DurationS: 2, Seed: 42, Clients: DefaultClients()})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ref)
	for _, b := range []string{
		`{}`,
		`{"total_rps":-1}`,
		`{"duration_s":1e308}`,
		`{"clients":[{"share":0}]}`,
		`{"clients":[{"share":1,"arrival":{"process":"gamma","shape":0}}]}`,
		`{"clients":[{"share":1,"scenarios":[{"weight":1,"params":{"mpki":-1}}]}]}`,
		`{"unknown":1}`,
		`{`,
	} {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var ws api.WorkloadSpec
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&ws); err != nil {
			return
		}
		spec, err := Compile(ws)
		if err != nil {
			if !errors.Is(err, model.ErrInvalidParams) && !errors.Is(err, model.ErrInvalidPlatform) {
				t.Fatalf("untyped compile error: %v", err)
			}
			return
		}
		if spec.TotalRPS*spec.Duration > 1e4 {
			t.Skip("too many expected arrivals for one fuzz execution")
		}
		if spec.Trace() == nil {
			t.Fatal("compiled spec produced no trace")
		}
	})
}
