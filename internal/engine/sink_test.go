package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/report"
)

func sampleArtifact(id string) Artifact {
	table := report.NewTable("sample", "k", "v")
	table.AddRow("a", "1")
	chart := report.NewChart("sample chart", "x", "y")
	if err := chart.AddSeries("s", []float64{0, 1}, []float64{0, 1}); err != nil {
		panic(err)
	}
	return Artifact{ID: id, Tables: []*report.Table{table}, Charts: []*report.Chart{chart}}
}

func sampleResult(id string, index int) ExperimentResult {
	return ExperimentResult{
		Experiment: Experiment{ID: id, Title: "Sample " + id, Section: "§T"},
		Index:      index,
		Artifact:   sampleArtifact(id),
		Wall:       12 * time.Millisecond,
	}
}

func TestDirSinkWritesFilesAndManifest(t *testing.T) {
	dir := t.TempDir()
	sink, err := NewDirSink(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Deliver out of registration order; the manifest must come back sorted.
	beta := sampleResult("beta", 1)
	beta.Start = 3 * time.Millisecond
	if err := sink.Write(beta); err != nil {
		t.Fatal(err)
	}
	if err := sink.Write(sampleResult("alpha", 0)); err != nil {
		t.Fatal(err)
	}
	failed := ExperimentResult{
		Experiment: Experiment{ID: "broken", Title: "Broken"},
		Index:      2,
		Err:        errors.New("sim blew up"),
	}
	if err := sink.Write(failed); err != nil {
		t.Fatal(err)
	}
	sink.RecordRun(RunResult{
		Wall:        100 * time.Millisecond,
		MaxParallel: 3,
		Resources:   []ResourceResult{{Name: "fit:w", Start: 7 * time.Millisecond, Wall: 40 * time.Millisecond}},
	}, 4)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	// Per-experiment files exist: txt, csv per table, svg per chart.
	for _, name := range []string{"alpha.txt", "alpha_0.csv", "alpha_0.svg", "beta.txt"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("missing %s: %v", name, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "broken.txt")); err == nil {
		t.Fatal("failed experiment must write no files")
	}

	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Experiments) != 3 {
		t.Fatalf("entries = %d", len(m.Experiments))
	}
	// Registration order, not completion order.
	for i, want := range []string{"alpha", "beta", "broken"} {
		if m.Experiments[i].ID != want {
			t.Fatalf("entry[%d] = %s, want %s", i, m.Experiments[i].ID, want)
		}
	}
	if m.Experiments[2].Error == "" || len(m.Experiments[2].Files) != 0 {
		t.Fatal("failed entry must carry the error and no files")
	}
	if m.Workers != 4 || m.MaxParallel != 3 || m.WallMS != 100 {
		t.Fatalf("run stats not recorded: %+v", m)
	}
	if len(m.Resources) != 1 || m.Resources[0].Name != "fit:w" || m.Resources[0].StartMS != 7 || m.Resources[0].WallMS != 40 {
		t.Fatalf("resources = %+v", m.Resources)
	}
	if m.Experiments[1].StartMS != 3 {
		t.Fatalf("beta start_ms = %d, want 3", m.Experiments[1].StartMS)
	}

	// Every recorded hash matches the bytes on disk.
	for _, e := range m.Experiments {
		for _, f := range e.Files {
			b, err := os.ReadFile(filepath.Join(dir, f.Name))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			if hex.EncodeToString(sum[:]) != f.SHA256 {
				t.Fatalf("%s: hash mismatch", f.Name)
			}
			if f.Bytes != len(b) {
				t.Fatalf("%s: size mismatch", f.Name)
			}
		}
	}

	// README index lists successes as links and failures as failures.
	idx, err := os.ReadFile(filepath.Join(dir, "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(idx), "[alpha](alpha.txt)") {
		t.Fatal("README missing alpha link")
	}
	if !strings.Contains(string(idx), "broken — FAILED") {
		t.Fatal("README missing failure line")
	}
}

func TestDirSinkManifestDeterministic(t *testing.T) {
	// Two sinks fed the same results in different orders produce
	// byte-identical manifests once timings match — the property the
	// golden-manifest drift test in internal/experiments relies on.
	write := func(order []int) []byte {
		dir := t.TempDir()
		sink, err := NewDirSink(dir)
		if err != nil {
			t.Fatal(err)
		}
		ids := []string{"a", "b", "c"}
		for _, i := range order {
			if err := sink.Write(sampleResult(ids[i], i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if string(write([]int{0, 1, 2})) != string(write([]int{2, 0, 1})) {
		t.Fatal("manifest depends on completion order")
	}
}

func TestStreamSink(t *testing.T) {
	var sb strings.Builder
	sink := &StreamSink{W: &sb, Verbose: true}
	if err := WriteArtifact(sink, "Sample title", sampleArtifact("s1")); err != nil {
		t.Fatal(err)
	}
	if err := sink.Write(ExperimentResult{
		Experiment: Experiment{ID: "bad"},
		Err:        errors.New("nope"),
	}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "== s1 (Sample title") {
		t.Fatalf("missing verbose header: %q", out)
	}
	if !strings.Contains(out, "sample") {
		t.Fatal("missing artifact text")
	}
	if !strings.Contains(out, "bad: FAILED: nope") {
		t.Fatal("missing failure line")
	}
}
