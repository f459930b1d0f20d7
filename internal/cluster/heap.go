package cluster

import (
	"math"
	"math/bits"

	"repro/internal/units"
)

// event is one pending completion, 32 bytes: the serving host and the
// request's arrival time. seq is the monotone push counter that makes
// the (at, seq) order a deterministic total order, exactly like the
// (timestamp, thread index) key of internal/sim's machine heap.
// Arrivals never enter the heap; they stream from workgen.
type event struct {
	at      units.Duration
	seq     uint64
	arrived units.Duration
	tenant  int32
	host    int32
}

// earlier is 1 when e precedes o in (at, seq) order and 0 otherwise,
// computed without a branch. at is never negative or NaN, so its IEEE
// bits order like its value (+Inf included), and (at bits, seq)
// compares as one 128-bit number: e - o borrows exactly when e is
// first. Keys are unique, so the order is total.
func (e *event) earlier(o *event) uint64 {
	_, borrow := bits.Sub64(e.seq, o.seq, 0)
	_, borrow = bits.Sub64(math.Float64bits(float64(e.at)), math.Float64bits(float64(o.at)), borrow)
	return borrow
}

// eventHeap is a slice-backed 4-ary min-heap over (at, seq). Sifts
// move a hole instead of swapping, so each level costs one copy.
type eventHeap []event

// push adds e.
func (h *eventHeap) push(e event) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if e.earlier(&q[parent]) == 0 {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = e
	*h = q
}

// pop removes the root.
func (h *eventHeap) pop() {
	q := *h
	last := len(q) - 1
	e := q[last]
	q = q[:last]
	if last > 0 {
		q.replaceTop(e)
	}
	*h = q
}

// replaceTop overwrites the root with e and restores the heap order in
// one sift-down; pop uses it to move the last leaf into the root. The
// earliest child is selected by masking, not branching: with ~50
// completions pending, which child wins is a coin toss the branch
// predictor would mostly lose.
func (h eventHeap) replaceTop(e event) {
	n := len(h)
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		end := min(first+4, n)
		for c := first + 1; c < end; c++ {
			best += (c - best) & -int(h[c].earlier(&h[best]))
		}
		if h[best].earlier(&e) == 0 {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = e
}
