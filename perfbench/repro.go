package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// excludedExperiment is left out of repro-full: its result depends on
// wall-clock latency and it boots its own servers.
const excludedExperiment = "loadgen-calibration"

// suiteRun is one cmd/repro invocation over the suite.
type suiteRun struct {
	wall   time.Duration
	cpu    time.Duration // user + system
	rssMB  float64
	stdout []byte
	out    string // output directory
}

func (e *env) repro() string { return filepath.Join(e.bin, "repro") }

// experimentIDs is every registered experiment but the excluded one.
func experimentIDs(ctx context.Context, e *env) ([]string, error) {
	b, err := exec.CommandContext(ctx, e.repro(), "-list", "-json").Output()
	if err != nil {
		return nil, fmt.Errorf("repro -list -json: %w", err)
	}
	var exps []struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(b, &exps); err != nil {
		return nil, fmt.Errorf("repro -list -json: %w", err)
	}
	var ids []string
	for _, x := range exps {
		if x.ID != excludedExperiment {
			ids = append(ids, x.ID)
		}
	}
	return ids, nil
}

// runSuite runs cmd/repro at Full scale over ids into a fresh directory,
// with a CPU profile when profile is set.
func runSuite(ctx context.Context, e *env, ids []string, tag, profile string) (*suiteRun, error) {
	out := filepath.Join(e.work, "results-"+tag)
	args := []string{"-workers", strconv.Itoa(e.conns), "-sim-cache", "mem", "-only", strings.Join(ids, ","), "-out", out}
	if profile != "" {
		args = append(args, "-cpuprofile", profile)
	}
	cmd := exec.CommandContext(ctx, e.repro(), args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	err := cmd.Run()
	wall := time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("repro suite: %w", err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, fmt.Errorf("repro suite: no rusage")
	}
	return &suiteRun{
		wall:   wall,
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		rssMB:  float64(ru.Maxrss) / 1024, // Linux reports KiB
		stdout: stdout.Bytes(),
		out:    out,
	}, nil
}

// manifest is the part of cmd/repro's manifest.json the benchmark reads.
type manifest struct {
	MaxParallel int `json:"max_parallel"`
	Experiments []struct {
		ID    string `json:"id"`
		Files []struct {
			Name   string `json:"name"`
			SHA256 string `json:"sha256"`
		} `json:"files"`
	} `json:"experiments"`
	Resources []struct {
		Name   string  `json:"name"`
		WallMS float64 `json:"wall_ms"`
	} `json:"resources"`
}

func readManifest(path string) (*manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// checkArtifacts hashes every artifact the golden manifest lists for the
// selected experiments and compares it; it returns the number checked
// and the number that differ or are missing.
func checkArtifacts(golden *manifest, dir string) (checked, bad int64) {
	for _, x := range golden.Experiments {
		if x.ID == excludedExperiment {
			continue
		}
		for _, f := range x.Files {
			checked++
			got, err := fileSHA256(filepath.Join(dir, f.Name))
			if err != nil || got != f.SHA256 {
				bad++
				fmt.Fprintf(os.Stderr, "perfbench: repro-full: %s differs from results/manifest.json (%v)\n", f.Name, err)
			}
		}
	}
	return checked, bad
}

func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func runReproFull(ctx context.Context, e *env) (*report, error) {
	rep := newReport()
	golden, err := readManifest(filepath.Join(e.root, "results", "manifest.json"))
	if err != nil {
		return nil, fmt.Errorf("golden manifest: %w", err)
	}
	ids, err := experimentIDs(ctx, e)
	if err != nil {
		return nil, err
	}
	var lists []float64
	for k := 0; k < setupRepeats; k++ {
		cmd := exec.CommandContext(ctx, e.repro(), "-list")
		cmd.Stdout = io.Discard
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("repro -list: %w", err)
		}
		lists = append(lists, time.Since(t0).Seconds())
	}
	run, err := runSuite(ctx, e, ids, "untraced", "")
	if err != nil {
		return nil, err
	}
	man, err := checkSuite(rep, golden, run)
	if err != nil {
		return nil, err
	}
	var fits []float64
	for _, r := range man.Resources {
		fits = append(fits, r.WallMS)
	}
	files := 0
	for _, x := range man.Experiments {
		files += len(x.Files)
	}
	rep.e2e["setup_s"] = median(lists)
	rep.e2e["wall_s"] = run.wall.Seconds()
	rep.e2e["cpu_s"] = run.cpu.Seconds()
	rep.e2e["cpu_us_per_op"] = us(run.cpu) / float64(files)
	rep.layers["proc.max_rss_mb"] = run.rssMB
	rep.e2e["p50_ms"] = median(fits)
	rep.layers["latency.p90_ms"] = pct(fits, 90)
	rep.e2e["max_rps"] = float64(len(man.Experiments)) / run.wall.Seconds()
	fmt.Fprintf(os.Stderr, "perfbench: repro-full: %d experiments, %d artifacts in %.2fs (cpu %.2fs)\n",
		len(man.Experiments), files, run.wall.Seconds(), run.cpu.Seconds())
	if !e.trace {
		return rep, nil
	}

	profile := filepath.Join(e.work, "repro.cpu.prof")
	traced, err := runSuite(ctx, e, ids, "traced", profile)
	if err != nil {
		return nil, err
	}
	tman, err := checkSuite(rep, golden, traced)
	if err != nil {
		return nil, err
	}
	L := rep.layers
	L["tracing.overhead_pct"] = 100 * (traced.wall.Seconds() - run.wall.Seconds()) / run.wall.Seconds()
	byPkg, err := profileByPackage(ctx, e.repro(), profile)
	if err != nil {
		return nil, err
	}
	for k, v := range byPkg {
		L[k] = v
	}
	if err := simCacheCounts(traced.stdout, L); err != nil {
		return nil, err
	}
	var longest time.Duration
	for _, r := range tman.Resources {
		if strings.HasPrefix(r.Name, "fit:") {
			d := time.Duration(r.WallMS * float64(time.Millisecond))
			L["engine.fit_wall_s"] += d.Seconds()
			longest = max(longest, d)
		}
	}
	L["engine.longest_fit_s"] = longest.Seconds()
	L["engine.max_parallel"] = float64(tman.MaxParallel)
	rungs, err := measurementLadder(ctx, e.seed)
	if err != nil {
		return nil, err
	}
	for k, v := range rungs {
		L[k] = v
	}
	return rep, nil
}

// checkSuite checks a suite run's artifacts against the golden manifest,
// counts them as the run's operations, and returns the run's manifest.
func checkSuite(rep *report, golden *manifest, run *suiteRun) (*manifest, error) {
	man, err := readManifest(filepath.Join(run.out, "manifest.json"))
	if err != nil {
		return nil, err
	}
	checked, bad := checkArtifacts(golden, run.out)
	rep.count(checked, bad)
	return man, nil
}

var simCacheLine = regexp.MustCompile(`sim cache: (\d+) hits / (\d+) disk hits / (\d+) misses`)

// simCacheCounts reads the measurement-cache summary cmd/repro prints.
func simCacheCounts(stdout []byte, L map[string]float64) error {
	m := simCacheLine.FindSubmatch(stdout)
	if m == nil {
		return fmt.Errorf("repro printed no sim cache summary")
	}
	hits, _ := strconv.ParseFloat(string(m[1]), 64) // the regexp admits digits only
	misses, _ := strconv.ParseFloat(string(m[3]), 64)
	L["simcache.hits"], L["simcache.misses"] = hits, misses
	return nil
}
