package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Sink consumes finished experiments. Implementations must tolerate
// concurrent Write calls (the scheduler may deliver results from several
// workers) and render everything pending on Close.
type Sink interface {
	Write(res ExperimentResult) error
	Close() error
}

// ManifestFile records one written artifact file with a content hash, so
// a later run (or CI) can detect result drift without diffing bytes.
type ManifestFile struct {
	Name   string `json:"name"`
	Bytes  int    `json:"bytes"`
	SHA256 string `json:"sha256"`
}

// ManifestEntry is one experiment's record in manifest.json.
type ManifestEntry struct {
	ID      string   `json:"id"`
	Title   string   `json:"title"`
	Section string   `json:"section,omitempty"`
	Deps    []string `json:"deps,omitempty"`
	StartMS int64    `json:"start_ms"` // ms from the run's start
	WallMS  int64    `json:"wall_ms"`
	// SimInstr is the aggregate instruction count simulated while this
	// experiment ran, and FuncInstr the part of it simulated functionally
	// (the rest replayed shared tracks). Absent when it simulated nothing.
	SimInstr  uint64 `json:"sim_instr,omitempty"`
	FuncInstr uint64 `json:"func_instr,omitempty"`
	// Solver telemetry: how the experiment's fixed points converged
	// (counts of solves, total kernel iterations, bandwidth-limited
	// outcomes, and the worst converged residual).
	// Absent for experiments that solve no fixed points.
	Solves          int64          `json:"solves,omitempty"`
	SolveIterations int64          `json:"solve_iterations,omitempty"`
	SolveBWLimited  int64          `json:"solve_bw_limited,omitempty"`
	SolveResidual   float64        `json:"solve_residual,omitempty"`
	Files           []ManifestFile `json:"files,omitempty"`
	Error           string         `json:"error,omitempty"`

	index int
}

// ManifestResource is one shared-dependency record in manifest.json.
type ManifestResource struct {
	Name      string `json:"name"`
	StartMS   int64  `json:"start_ms"` // ms from the run's start
	WallMS    int64  `json:"wall_ms"`
	SimInstr  uint64 `json:"sim_instr,omitempty"`
	FuncInstr uint64 `json:"func_instr,omitempty"`
	Error     string `json:"error,omitempty"`
}

// Manifest is the machine-readable run record written next to the
// artifacts.
type Manifest struct {
	GeneratedBy string             `json:"generated_by"`
	Workers     int                `json:"workers,omitempty"`
	WallMS      int64              `json:"wall_ms,omitempty"`
	MaxParallel int                `json:"max_parallel,omitempty"`
	Experiments []ManifestEntry    `json:"experiments"`
	Resources   []ManifestResource `json:"resources,omitempty"`
}

// DirSink writes one .txt per experiment, one .csv per table, one .svg
// per chart, plus README.md (the human index) and manifest.json (the
// drift-detection record) on Close.
type DirSink struct {
	dir string

	mu      sync.Mutex
	entries []ManifestEntry
	run     *RunResult
	workers int
}

// NewDirSink creates the output directory (if needed) and a sink over it.
func NewDirSink(dir string) (*DirSink, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &DirSink{dir: dir}, nil
}

// RecordRun attaches scheduler-level stats (total wall time, worker
// high-water mark, resource timings) for the manifest. Call before Close.
func (s *DirSink) RecordRun(rr RunResult, workers int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := rr
	s.run = &cp
	s.workers = workers
}

// Write renders one experiment's files and records its manifest entry.
// Failed experiments are recorded (with the error) but write no files.
func (s *DirSink) Write(res ExperimentResult) error {
	ent := ManifestEntry{
		ID:              res.ID,
		Title:           res.Title,
		Section:         res.Section,
		Deps:            res.Deps,
		StartMS:         res.Start.Milliseconds(),
		WallMS:          res.Wall.Milliseconds(),
		SimInstr:        res.SimInstr,
		FuncInstr:       res.FuncInstr,
		Solves:          res.Solves,
		SolveIterations: res.SolveIterations,
		SolveBWLimited:  res.SolveBWLimited,
		SolveResidual:   res.SolveResidual,
		index:           res.Index,
	}
	if res.Err != nil {
		ent.Error = res.Err.Error()
		s.append(ent)
		return nil
	}
	write := func(name, content string) error {
		if err := os.WriteFile(filepath.Join(s.dir, name), []byte(content), 0o644); err != nil {
			return fmt.Errorf("engine: write %s: %w", name, err)
		}
		sum := sha256.Sum256([]byte(content))
		ent.Files = append(ent.Files, ManifestFile{
			Name:   name,
			Bytes:  len(content),
			SHA256: hex.EncodeToString(sum[:]),
		})
		return nil
	}
	if err := write(res.ID+".txt", res.Artifact.Text()); err != nil {
		return err
	}
	for i, t := range res.Artifact.Tables {
		if err := write(fmt.Sprintf("%s_%d.csv", res.ID, i), t.CSV()); err != nil {
			return err
		}
	}
	for i, ch := range res.Artifact.Charts {
		if err := write(fmt.Sprintf("%s_%d.svg", res.ID, i), ch.SVG()); err != nil {
			return err
		}
	}
	s.append(ent)
	return nil
}

func (s *DirSink) append(ent ManifestEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = append(s.entries, ent)
}

// Close writes README.md and manifest.json. Entries are ordered by the
// registry's registration order, independent of completion order, so two
// identical runs produce byte-identical manifests (modulo timings).
func (s *DirSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sort.Slice(s.entries, func(i, j int) bool { return s.entries[i].index < s.entries[j].index })

	m := Manifest{
		GeneratedBy: "go run ./cmd/repro",
		Experiments: s.entries,
		Workers:     s.workers,
	}
	if m.Experiments == nil {
		m.Experiments = []ManifestEntry{}
	}
	if s.run != nil {
		m.WallMS = s.run.Wall.Milliseconds()
		m.MaxParallel = s.run.MaxParallel
		for _, r := range s.run.Resources {
			mr := ManifestResource{Name: r.Name, StartMS: r.Start.Milliseconds(), WallMS: r.Wall.Milliseconds(), SimInstr: r.SimInstr, FuncInstr: r.FuncInstr}
			if r.Err != nil {
				mr.Error = r.Err.Error()
			}
			m.Resources = append(m.Resources, mr)
		}
		sort.Slice(m.Resources, func(i, j int) bool { return m.Resources[i].Name < m.Resources[j].Name })
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(s.dir, "manifest.json"), append(data, '\n'), 0o644); err != nil {
		return err
	}

	var idx []byte
	idx = append(idx, "# results index\n\nGenerated by `go run ./cmd/repro`. One .txt per experiment\n(DESIGN.md section 4), with .csv per table and .svg per chart.\n`manifest.json` records every experiment's id, title, paper section,\ndependencies, start and wall time, solver telemetry (fixed-point solves,\nkernel iterations, bandwidth-limited outcomes, worst residual), and\nper-file sha256 content hashes — compare manifests across runs to\ndetect result drift.\n\n"...)
	for _, e := range s.entries {
		if e.Error != "" {
			idx = append(idx, fmt.Sprintf("- %s — FAILED: %s\n", e.ID, e.Error)...)
			continue
		}
		idx = append(idx, fmt.Sprintf("- [%s](%s.txt) — %s\n", e.ID, e.ID, e.Title)...)
	}
	return os.WriteFile(filepath.Join(s.dir, "README.md"), idx, 0o644)
}

// StreamSink renders artifacts as plain text to a writer — the unified
// pipeline for tools and examples that print to stdout instead of
// writing a results directory.
type StreamSink struct {
	W io.Writer
	// Verbose also prints a per-experiment header (title, timing).
	Verbose bool

	mu sync.Mutex
}

// Write renders one artifact.
func (s *StreamSink) Write(res ExperimentResult) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if res.Err != nil {
		_, err := fmt.Fprintf(s.W, "%s: FAILED: %v\n", res.ID, res.Err)
		return err
	}
	if s.Verbose {
		if _, err := fmt.Fprintf(s.W, "== %s (%s, %v)\n", res.ID, res.Title, res.Wall.Round(time.Millisecond)); err != nil {
			return err
		}
	}
	_, err := io.WriteString(s.W, res.Artifact.Text())
	return err
}

// Close implements Sink; nothing is buffered.
func (s *StreamSink) Close() error { return nil }

// WriteArtifact is a convenience for tools that produce an artifact
// outside the scheduler: it wraps it in a result and writes it.
func WriteArtifact(sink Sink, title string, art Artifact) error {
	return sink.Write(ExperimentResult{
		Experiment: Experiment{ID: art.ID, Title: title},
		Artifact:   art,
	})
}
