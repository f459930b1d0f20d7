package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// Verdicts of the compare mode.
const (
	improved   = "improved"
	noWorse    = "no worse"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// benchSpec is the part of BENCHMARK.json the compare mode reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// resultSet is one side of a comparison: workload → run name → result.
type resultSet map[string]map[string]result

// loadSet reads a result set: one subdirectory per workload, each
// holding one file per run whose last line is the benchmark's result.
// Runs of the two sides pair up by file name, so name them by seed.
func loadSet(dir string) (resultSet, error) {
	set := resultSet{}
	files, err := filepath.Glob(filepath.Join(dir, "*", "*"))
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
		var r result
		if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
			return nil, fmt.Errorf("%s: last line is not a result: %w", f, err)
		}
		w := filepath.Base(filepath.Dir(f))
		if set[w] == nil {
			set[w] = map[string]result{}
		}
		set[w][filepath.Base(f)] = r
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s: no results (want <workload>/<run> files)", dir)
	}
	return set, nil
}

// summary is one side's distribution of a metric.
type summary struct {
	n              int
	q1, median, q3 float64
	min, max       float64
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := summary{n: len(xs), q1: pct(xs, 25), median: pct(xs, 50), q3: pct(xs, 75), min: math.Inf(1), max: math.Inf(-1)}
	for _, x := range xs {
		s.min, s.max = math.Min(s.min, x), math.Max(s.max, x)
	}
	return s
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.median == 0 {
		return math.Inf(1)
	}
	return (s.q3 - s.q1) / math.Abs(s.median)
}

// comparison is one (workload, metric) row.
type comparison struct {
	a, b        summary
	wins, pairs int
	verdict     string
}

// compareMetric judges change b against parent a. a and b map run names
// to values; same-named runs form the pairs. Rules, in order:
//   - a side's spread wider than the bound: unresolved, unless every run
//     of b beats every run of a (improved);
//   - b's median worse than a's by more than the bound: regressed;
//   - b wins at least nine tenths of the pairs (ties count for neither)
//     and its median beats a's by more than a's interquartile range:
//     improved;
//   - otherwise no worse.
func compareMetric(a, b map[string]float64, higherBetter bool, bound float64) comparison {
	var av, bv []float64
	for _, v := range a {
		av = append(av, v)
	}
	for _, v := range b {
		bv = append(bv, v)
	}
	c := comparison{a: summarize(av), b: summarize(bv)}
	better := func(x, y float64) bool { return (higherBetter && x > y) || (!higherBetter && x < y) }
	for k, x := range b {
		if y, ok := a[k]; ok {
			c.pairs++
			if better(x, y) {
				c.wins++
			}
		}
	}
	if c.a.n == 0 || c.b.n == 0 {
		c.verdict = unresolved
		return c
	}
	worse := (c.b.median - c.a.median) / math.Abs(c.a.median)
	if higherBetter {
		worse = -worse
	}
	gain := -worse * math.Abs(c.a.median)
	allBetter := (higherBetter && c.b.min > c.a.max) || (!higherBetter && c.b.max < c.a.min)
	switch {
	case math.Max(c.a.spread(), c.b.spread()) > bound:
		c.verdict = unresolved
		if allBetter {
			c.verdict = improved
		}
	case worse > bound:
		c.verdict = regressed
	case c.pairs > 0 && 10*c.wins >= 9*c.pairs && gain > c.a.q3-c.a.q1:
		c.verdict = improved
	default:
		c.verdict = noWorse
	}
	return c
}

// compareMain is `perfbench compare [-bench BENCHMARK.json] parent change`.
// It prints one row per (workload, end-to-end metric) and exits 1 when
// any row regressed.
func compareMain(root string, args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("bench", filepath.Join(root, "BENCHMARK.json"), "benchmark definition holding the metrics' bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-bench BENCHMARK.json] <parent-set> <change-set>")
		return 2
	}
	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *benchPath, err)
		return 2
	}
	parent, err := loadSet(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	change, err := loadSet(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	if writeComparison(os.Stdout, spec, parent, change) {
		return 1
	}
	return 0
}

// writeComparison prints the comparison table and reports whether any
// row regressed.
func writeComparison(w io.Writer, spec benchSpec, parent, change resultSet) bool {
	var workloads []string
	for name := range parent {
		if _, ok := change[name]; ok {
			workloads = append(workloads, name)
		}
	}
	sort.Strings(workloads)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\tpairs won\tbound\tverdict")
	anyRegressed := false
	for _, wl := range workloads {
		for _, m := range spec.EndToEnd {
			a, b := metricByRun(parent[wl], m.Name), metricByRun(change[wl], m.Name)
			if len(a) == 0 && len(b) == 0 {
				continue
			}
			c := compareMetric(a, b, m.Better == "higher", m.Bound)
			anyRegressed = anyRegressed || c.verdict == regressed
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g] %s\t%.4g [%.4g, %.4g] %s\t%d/%d\t%.0f%%\t%s\n",
				wl, m.Name, c.a.median, c.a.q1, c.a.q3, m.Unit, c.b.median, c.b.q1, c.b.q3, m.Unit,
				c.wins, c.pairs, 100*m.Bound, c.verdict)
		}
	}
	tw.Flush()
	return anyRegressed
}

// metricByRun extracts one metric from every run of a workload.
func metricByRun(runs map[string]result, name string) map[string]float64 {
	out := map[string]float64{}
	for run, r := range runs {
		if v, ok := r.Metrics[name]; ok && r.Correct {
			out[run] = v.Value
		}
	}
	return out
}
