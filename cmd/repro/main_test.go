package main

import (
	"regexp"
	"testing"

	"repro/internal/sim"
	"repro/internal/simcache"
)

// simCacheLine is copied literally from perfbench/repro.go, which reads
// the benchmark's simcache.hits and simcache.misses off this line.
var simCacheLine = regexp.MustCompile(`sim cache: (\d+) hits / (\d+) disk hits / (\d+) misses`)

// TestSimCacheSummaryMatchesBenchmarkParser pins the summary line to the
// benchmark's parser: the line it prints for a real cache's counters
// must match, with the hits and misses in the groups the parser reads
// and the disk-hit group 0.
func TestSimCacheSummaryMatchesBenchmarkParser(t *testing.T) {
	c := simcache.New(16)
	c.Put("a", sim.Measurement{})
	for _, key := range []string{"a", "b", "c"} {
		c.Get(key)
	}
	line := simCacheSummary(c.Stats())
	const want = "sim cache: 1 hits / 0 disk hits / 2 misses (33% hit ratio, 1 held)"
	if line != want {
		t.Fatalf("summary = %q, want %q", line, want)
	}
	m := simCacheLine.FindStringSubmatch(line)
	if m == nil {
		t.Fatalf("perfbench's regexp does not match %q", line)
	}
	if m[1] != "1" || m[2] != "0" || m[3] != "2" {
		t.Fatalf("parsed hits/disk hits/misses = %s/%s/%s, want 1/0/2", m[1], m[2], m[3])
	}
}
