package workgen

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/trace"
)

// Arrival is one scheduled request of a generated trace.
type Arrival struct {
	// At is the arrival offset from the start of the run, in seconds.
	At float64
	// Client and Scenario index into the compiled spec.
	Client   int
	Scenario int
}

// Trace is a merged, time-ordered arrival schedule plus its
// determinism witness.
type Trace struct {
	Arrivals []Arrival
	// Hash is the FNV-64a fold of every arrival's (time bits, client,
	// scenario) in merged order: the same spec and seed must reproduce
	// it bit-exactly, and any change to the generator that moves a
	// single arrival shows up here.
	Hash uint64
}

// HashHex renders the determinism witness the way reports carry it.
func (t *Trace) HashHex() string { return fmt.Sprintf("%016x", t.Hash) }

// Trace generates the spec's arrival schedule. Each client draws its
// gaps and scenario picks from its own trace.StreamRNG stream (as the
// tenants of internal/cluster do), so adding or reordering clients
// never perturbs another client's arrivals; the per-client streams are
// then merged by (time, client).
func (s *Spec) Trace() *Trace {
	tr := &Trace{}
	for ci := range s.Clients {
		c := &s.Clients[ci]
		rng := trace.StreamRNG(s.Seed, ci)
		t := 0.0
		for {
			t += c.Process.Next(rng)
			if t >= s.Duration {
				break
			}
			tr.Arrivals = append(tr.Arrivals, Arrival{
				At:       t,
				Client:   ci,
				Scenario: c.draw(rng.Float64()),
			})
		}
	}
	// Per-client streams are time-sorted already; a stable sort keyed by
	// (time, client) gives one deterministic merged order.
	sort.SliceStable(tr.Arrivals, func(i, j int) bool {
		a, b := tr.Arrivals[i], tr.Arrivals[j]
		if a.At != b.At {
			return a.At < b.At
		}
		return a.Client < b.Client
	})
	h := trace.NewHash64()
	for _, a := range tr.Arrivals {
		h.Fold(math.Float64bits(a.At))
		h.Fold(uint64(a.Client))
		h.Fold(uint64(a.Scenario))
	}
	tr.Hash = h.Sum64()
	return tr
}
