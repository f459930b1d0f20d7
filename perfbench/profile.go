package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// profiledPackages are the cmd/repro packages the profile breakdown
// names; every other package's time lands in other.self_s.
var profiledPackages = []string{
	"cache", "memsys", "workloads", "cpu", "sim", "pmu", "trace",
	"experiments", "model", "regress", "engine",
}

// profileByPackage groups a CPU profile's flat (self) time by package
// with `go tool pprof -top`, in seconds, under the <pkg>.self_s names.
func profileByPackage(ctx context.Context, binary, profile string) (map[string]float64, error) {
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-top", "-unit=ms",
		"-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", binary, profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	top, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, stderr.Bytes())
	}
	return groupTop(top)
}

// groupTop parses `pprof -top -unit=ms` output and sums flat time per
// package.
func groupTop(top []byte) (map[string]float64, error) {
	out := map[string]float64{"runtime.self_s": 0, "other.self_s": 0}
	for _, p := range profiledPackages {
		out[p+".self_s"] = 0
	}
	named := map[string]bool{}
	for _, p := range profiledPackages {
		named[p] = true
	}
	rows := 0
	sc := bufio.NewScanner(bytes.NewReader(top))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		// flat flat% sum% cum cum% function...
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") || !strings.HasSuffix(f[0], "ms") {
			continue
		}
		flat, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			continue
		}
		rows++
		out[packageOf(strings.Join(f[5:], " "), named)+".self_s"] += flat / 1e3
	}
	if rows == 0 {
		return nil, fmt.Errorf("pprof -top printed no rows")
	}
	return out, sc.Err()
}

// packageOf maps a profiled function name to its metric prefix: the
// repro/internal package name when it is one of the named ones, runtime
// for the Go runtime, other otherwise.
func packageOf(fn string, named map[string]bool) string {
	if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		if named[pkg] {
			return pkg
		}
		return "other"
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") || strings.HasPrefix(fn, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}
