package workgen

import (
	"fmt"
	"math"

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

// Stream is the one arrival generator: it yields the clients' merged
// arrivals in (time, client) order, holding one RNG and one pending
// arrival time per client, so its state is O(clients).
type Stream struct {
	spec *Spec
	rngs []*trace.RNG
	next []float64 // pending arrival per client, seconds; >= Duration once done
}

// Stream starts the arrival stream of the spec's Seed, Duration and
// Clients. Client i draws from trace.StreamRNG(Seed, i), so no client
// perturbs another's arrivals; one with no scenario mix reports 0.
func (s *Spec) Stream() *Stream {
	st := &Stream{spec: s, rngs: make([]*trace.RNG, len(s.Clients)), next: make([]float64, len(s.Clients))}
	for i := range s.Clients {
		st.rngs[i] = trace.StreamRNG(s.Seed, i)
		st.next[i] = s.Clients[i].Process.Next(st.rngs[i])
	}
	return st
}

// Next returns the earliest pending arrival, the lower client index
// first on equal times, and false once every client is past Duration.
// A client's draws interleave as gap, pick, gap, pick, ...
func (st *Stream) Next() (Arrival, bool) {
	ci := -1
	for i, t := range st.next {
		if t < st.spec.Duration && (ci < 0 || t < st.next[ci]) {
			ci = i
		}
	}
	if ci < 0 {
		return Arrival{}, false
	}
	c, rng := &st.spec.Clients[ci], st.rngs[ci]
	a := Arrival{At: st.next[ci], Client: ci, Scenario: c.draw(rng.Float64())}
	st.next[ci] += c.Process.Next(rng)
	return a, true
}

// Trace drains the spec's arrival stream into a schedule and folds its
// determinism witness.
func (s *Spec) Trace() *Trace {
	tr := &Trace{}
	h := trace.NewHash64()
	st := s.Stream()
	for a, ok := st.Next(); ok; a, ok = st.Next() {
		tr.Arrivals = append(tr.Arrivals, a)
		h.Fold(math.Float64bits(a.At))
		h.Fold(uint64(a.Client))
		h.Fold(uint64(a.Scenario))
	}
	tr.Hash = h.Sum64()
	return tr
}
