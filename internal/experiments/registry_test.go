package experiments

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"repro/internal/engine"
	"repro/internal/simcache"
	"repro/internal/workloads"
)

func TestRegistryCatalog(t *testing.T) {
	reg := NewSuite(Quick()).Registry()
	if err := reg.Validate(); err != nil {
		t.Fatal(err)
	}
	ids := reg.IDs()
	if len(ids) != 31 {
		t.Fatalf("registry has %d experiments, want 31", len(ids))
	}
	// The catalog starts with Fig. 1 and covers the supplementary sweep.
	if ids[0] != "fig1" {
		t.Fatalf("first id = %s", ids[0])
	}
	want := map[string]bool{"fig7": true, "table7": true, "grades-hpc": true, "efficiency": true,
		"die-stacked": true, "cxl-far-memory": true, "sustained-bw": true,
		"cluster-routing": true, "cluster-admission": true, "loadgen-calibration": true}
	for _, id := range ids {
		delete(want, id)
	}
	if len(want) != 0 {
		t.Fatalf("missing ids: %v", want)
	}
	// Every experiment carries a title and a section reference.
	for _, e := range reg.Experiments() {
		if e.Title == "" || e.Section == "" {
			t.Fatalf("%s: missing title or section", e.ID)
		}
	}
	// One fit resource per grid — each workload's and each variant's —
	// plus the calibrated curve.
	grids := workloads.Names()
	for _, v := range variantGrids {
		grids = append(grids, prefetchGrid(v.workload, v.depth))
	}
	for _, name := range grids {
		if _, ok := reg.Resource(FitResource(name)); !ok {
			t.Fatalf("missing fit resource for %s", name)
		}
	}
	if _, ok := reg.Resource(CurveResource); !ok {
		t.Fatal("missing queue-curve resource")
	}
}

// TestCommittedManifestMatchesRegistry checks the full-scale manifest
// committed under results/ against the registry, without simulating: the
// same experiments in the same order, each with the dependencies it
// declares. A registry change that is not followed by a re-capture of
// results/ fails here.
func TestCommittedManifestMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "results", "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m engine.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	exps := NewSuite(Full()).Registry().Experiments()
	if len(m.Experiments) != len(exps) {
		t.Errorf("results/manifest.json has %d experiments, registry %d", len(m.Experiments), len(exps))
	}
	for i := range min(len(m.Experiments), len(exps)) {
		got, want := m.Experiments[i], exps[i]
		if got.ID != want.ID {
			t.Errorf("experiment %d: results/manifest.json has %q, registry %q", i, got.ID, want.ID)
			continue
		}
		if !slices.Equal(got.Deps, want.Deps) {
			t.Errorf("%s: results/manifest.json deps %v, registry %v", got.ID, got.Deps, want.Deps)
		}
	}
}

func TestRegistryFitDepsShareCache(t *testing.T) {
	if testing.Short() {
		t.Skip("runs scaling fits")
	}
	// Scheduling an experiment whose fits were prepared as resources must
	// serve every Fit call from the grids the resources ran: the
	// resources simulate, the experiment does not.
	s := NewSuite(Quick())
	reg := s.Registry()
	rr, err := engine.Run(bg, reg, []string{"table3"}, engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Failed() != 0 {
		t.Fatalf("failed: %+v", rr.Experiments[0].Err)
	}
	if res := rr.Experiments[0]; res.SimInstr != 0 {
		t.Fatalf("table3 simulated %d instructions, want none", res.SimInstr)
	}
	i := slices.IndexFunc(rr.Resources, func(r engine.ResourceResult) bool { return r.Name == "fit:columnstore" })
	if i < 0 {
		t.Fatalf("fit:columnstore not prepared: %+v", rr.Resources)
	}
	if rr.Resources[i].SimInstr == 0 {
		t.Fatal("fit:columnstore simulated nothing")
	}
}

// TestGridStudiesOnlyRender: the prefetch studies and the grade sweep
// render grids they declare as resources. The resources take every
// probe, so the experiments simulate nothing, and no probe is requested
// twice: the run's measurement cache counts no hit, and each miss stored
// a distinct entry.
func TestGridStudiesOnlyRender(t *testing.T) {
	if testing.Short() {
		t.Skip("runs nine grids")
	}
	c := simcache.New(1024)
	scale := Quick()
	scale.SimCache = c
	ids := []string{"prefetch-ablation", "prefetch-depth", "grades-hpc"}
	rr, err := engine.Run(bg, NewSuite(scale).Registry(), ids, engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range rr.Experiments {
		if res.Err != nil {
			t.Fatalf("%s: %v", res.ID, res.Err)
		}
		if res.SimInstr != 0 {
			t.Errorf("%s simulated %d instructions, want none", res.ID, res.SimInstr)
		}
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses == 0 || st.Misses != int64(st.Size) {
		t.Fatalf("sim cache %+v, want no hits and one distinct entry per miss", st)
	}
}

// runQuickManifest executes the selected experiments on a fresh suite into
// a fresh directory and returns the parsed manifest.
func runQuickManifest(t *testing.T, ids []string, workers int) engine.Manifest {
	t.Helper()
	dir := t.TempDir()
	sink, err := engine.NewDirSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewSuite(Quick()).Registry()
	rr, err := engine.Run(bg, reg, ids, engine.Options{
		Workers: workers,
		OnResult: func(res engine.ExperimentResult) {
			if err := sink.Write(res); err != nil {
				t.Error(err)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := rr.Failed(); n != 0 {
		for _, res := range rr.Experiments {
			if res.Err != nil {
				t.Errorf("%s: %v", res.ID, res.Err)
			}
		}
		t.Fatalf("%d experiments failed", n)
	}
	sink.RecordRun(rr, workers)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m engine.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// goldenPath holds the quick-scale suite's content hashes: experiment id
// → artifact file → sha256, every experiment but loadgen-calibration
// (its observed wall-clock latencies legitimately differ between runs).
// A change that moves an artifact shows as a diff of this file;
// regenerate it with
//
//	go test ./internal/experiments -run '^TestGoldenManifestNoDrift$' -update
const goldenPath = "testdata/golden_quick.json"

// The golden file is captured at one worker count and checked at
// another, so the check also covers cross-worker determinism.
const (
	goldenCaptureWorkers = 4
	goldenCheckWorkers   = 2
)

var update = flag.Bool("update", false, "rewrite "+goldenPath+" from a quick-suite run")

// goldenHashes maps each experiment of a manifest to its files' hashes.
func goldenHashes(m engine.Manifest) map[string]map[string]string {
	out := make(map[string]map[string]string, len(m.Experiments))
	for _, e := range m.Experiments {
		files := make(map[string]string, len(e.Files))
		for _, f := range e.Files {
			files[f.Name] = f.SHA256
		}
		out[e.ID] = files
	}
	return out
}

// TestGoldenManifestNoDrift runs the -quick suite once and requires every
// artifact file to hash exactly as recorded in goldenPath. It names every
// drifted, missing or unexpected file. The simulator is deterministic,
// so a difference means a code change (or concurrency) altered a result.
func TestGoldenManifestNoDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("a full -quick suite run")
	}
	// Under the race detector the full suite is impractically slow; a
	// representative subset still exercises concurrent fits, the curve
	// calibration, and manifest determinism.
	var ids []string
	if raceEnabled && !*update {
		ids = []string{"fig1", "fig7", "fig8", "table3", "efficiency", "cluster-routing"}
	} else {
		for _, id := range NewSuite(Quick()).Registry().IDs() {
			if id != "loadgen-calibration" {
				ids = append(ids, id)
			}
		}
	}
	workers := goldenCheckWorkers
	if *update {
		workers = goldenCaptureWorkers
	}
	m := runQuickManifest(t, ids, workers)
	// Every simulation belongs to a resource: no experiment of the run
	// simulates, functionally or by replay.
	for _, e := range m.Experiments {
		if e.SimInstr != 0 || e.FuncInstr != 0 {
			t.Errorf("%s simulated %d instructions (%d functionally), want none", e.ID, e.SimInstr, e.FuncInstr)
		}
	}
	got := goldenHashes(m)
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d experiments)", goldenPath, len(got))
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	var want map[string]map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	if !raceEnabled {
		for id := range want {
			if _, ok := got[id]; !ok {
				t.Errorf("%s: in %s but not in the suite", id, goldenPath)
			}
		}
	}
	for _, id := range ids {
		wf, ok := want[id]
		if !ok {
			t.Errorf("%s: not in %s", id, goldenPath)
			continue
		}
		gf := got[id]
		for _, name := range sortedKeys(wf) {
			switch sum, ok := gf[name]; {
			case !ok:
				t.Errorf("%s: %s missing", id, name)
			case sum != wf[name]:
				t.Errorf("%s: drift in %s (sha256 %s, golden %s)", id, name, sum[:12], wf[name][:12])
			}
		}
		for _, name := range sortedKeys(gf) {
			if _, ok := wf[name]; !ok {
				t.Errorf("%s: unexpected file %s", id, name)
			}
		}
	}
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
