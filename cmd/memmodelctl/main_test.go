package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/serve"
	"repro/internal/workgen"
)

// lookup returns the named subcommand from the dispatch table.
func lookup(t *testing.T, name string) command {
	t.Helper()
	for _, c := range commands() {
		if c.name == name {
			return c
		}
	}
	t.Fatalf("no command %q", name)
	return command{}
}

// parse parses args for the named command without exiting on error.
func parse(t *testing.T, name string, args ...string) (func(context.Context, *shared) error, *shared) {
	t.Helper()
	run, sh, err := lookup(t, name).parse(args, flag.ContinueOnError)
	if err != nil {
		t.Fatalf("%s %v: %v", name, args, err)
	}
	return run, sh
}

// TestSeedFlagOverridesOnlyWhenSet: a spec file's seed survives the
// -seed flag's default, an explicit -seed replaces it, and a spec
// without a seed takes the flag's value.
func TestSeedFlagOverridesOnlyWhenSet(t *testing.T) {
	dir := t.TempDir()
	seeded := filepath.Join(dir, "seeded.json")
	if err := os.WriteFile(seeded, []byte(`{"name": "seeded", "seed": 42}`), 0o644); err != nil {
		t.Fatal(err)
	}
	unseeded := filepath.Join(dir, "unseeded.json")
	if err := os.WriteFile(unseeded, []byte(`{"name": "unseeded"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path string
		args []string
		want uint64
	}{
		{seeded, nil, 42},
		{seeded, []string{"-seed", "7"}, 7},
		{unseeded, nil, 1},
		{unseeded, []string{"-seed", "7"}, 7},
		{"", nil, 1},
	} {
		for _, cmd := range []string{"loadgen", "validate"} {
			_, sh := parse(t, cmd, tc.args...)
			ws, err := sh.readSpec(tc.path, 0, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if ws.Seed != tc.want {
				t.Errorf("%s %v on %q: spec seed %d, want %d", cmd, tc.args, tc.path, ws.Seed, tc.want)
			}
		}
	}
}

// TestLoadgenProbeFlagGone: the separate probe pass is gone, so its
// flag is a usage error.
func TestLoadgenProbeFlagGone(t *testing.T) {
	if _, _, err := lookup(t, "loadgen").parse([]string{"-probe", "8"}, flag.ContinueOnError); err == nil {
		t.Fatal("loadgen accepted -probe")
	}
}

// TestLoadgenReport drives loadgen against an in-process daemon and
// checks the report's shape and identity. Latencies are wall-clock,
// so none is bounded.
func TestLoadgenReport(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a second of real traffic")
	}
	srv := httptest.NewServer(serve.New().Handler())
	defer srv.Close()

	run, sh := parse(t, "loadgen", "-server", srv.URL, "-json", "-seed", "42",
		"-rps", "100", "-duration", "1", "-warmup", "0.2")
	var out bytes.Buffer
	sh.out = &out
	if err := run(context.Background(), sh); err != nil {
		t.Fatal(err)
	}
	var rep workgen.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("decode report: %v\n%s", err, out.Bytes())
	}

	ws, err := sh.readSpec("", 100, 1, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := workgen.Compile(ws)
	if err != nil {
		t.Fatal(err)
	}
	tr := spec.Trace()
	if rep.Arrivals != len(tr.Arrivals) || rep.TraceHash != tr.HashHex() {
		t.Errorf("report names %d arrivals / %s, the trace has %d / %s",
			rep.Arrivals, rep.TraceHash, len(tr.Arrivals), tr.HashHex())
	}
	if len(rep.Pairs) != 16 {
		t.Errorf("report has %d pairs, want 16", len(rep.Pairs))
	}
	for name, v := range map[string]float64{
		"throughput": rep.ThroughputMAPE, "mean latency": rep.MeanLatencyMAPE, "overall": rep.OverallMAPE,
	} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s MAPE = %v, want finite", name, v)
		}
	}
	if o, p := rep.Observed[0].OfferedRPS, rep.Predicted[0].OfferedRPS; o != p {
		t.Errorf("total offered_rps: observed %v, predicted %v", o, p)
	}
}
