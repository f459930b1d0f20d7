package main

import (
	"regexp"
	"testing"
)

// simCacheLine is copied literally from perfbench/repro.go, which reads
// the benchmark's simcache.hits and simcache.misses off this line.
var simCacheLine = regexp.MustCompile(`sim cache: (\d+) hits / (\d+) disk hits / (\d+) misses`)

// TestSimCacheSummaryMatchesBenchmarkParser pins the closing probe line to
// the benchmark's parser: it must match, with the hits and disk-hit
// groups 0 and the probes in the misses group.
func TestSimCacheSummaryMatchesBenchmarkParser(t *testing.T) {
	line := probeSummary(176)
	const want = "probes: 176 (sim cache: 0 hits / 0 disk hits / 176 misses)"
	if line != want {
		t.Fatalf("summary = %q, want %q", line, want)
	}
	m := simCacheLine.FindStringSubmatch(line)
	if m == nil {
		t.Fatalf("perfbench's regexp does not match %q", line)
	}
	if m[1] != "0" || m[2] != "0" || m[3] != "176" {
		t.Fatalf("parsed hits/disk hits/misses = %s/%s/%s, want 0/0/176", m[1], m[2], m[3])
	}
}
