package cluster

import "repro/internal/units"

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

// before is the (at, seq) order. Keys are unique, so it is total.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
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
		if !e.before(&q[parent]) {
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
// one sift-down; pop uses it to move the last leaf into the root.
func (h eventHeap) replaceTop(e event) {
	n := len(h)
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if h[c].before(&h[best]) {
				best = c
			}
		}
		if !h[best].before(&e) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = e
}
