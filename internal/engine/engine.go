// Package engine turns the paper's experiment catalog into a
// registry-driven, concurrent pipeline. Experiments self-describe (ID,
// title, paper section, declared dependencies) and register into a
// Registry; Run schedules the resulting two-level graph — shared
// dependencies such as grid fits and the calibrated queuing curve are
// resource nodes, the experiments that render them wait on them — over
// a bounded worker pool with context cancellation. Rendered
// artifacts flow through a unified Sink that writes text/CSV/SVG files
// and a manifest.json with per-experiment timings and content hashes so
// downstream tooling can detect result drift.
//
// The package deliberately knows nothing about the experiments
// themselves: internal/experiments registers its Suite methods here, and
// cmd/repro (plus the other tools) only talk to the registry, scheduler,
// and sinks.
package engine

import (
	"repro/internal/report"
)

// Artifact is a rendered experiment: the tables and charts that
// correspond to one table or figure of the paper.
type Artifact struct {
	ID     string // e.g. "fig7", "table2"
	Tables []*report.Table
	Charts []*report.Chart
}

// Text renders the artifact as plain text.
func (a Artifact) Text() string {
	out := ""
	for _, t := range a.Tables {
		out += t.ASCII() + "\n"
	}
	for _, c := range a.Charts {
		out += c.ASCII() + "\n"
	}
	return out
}
