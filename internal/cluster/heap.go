package cluster

import "repro/internal/units"

// event is one heap entry, 32 bytes. seq is the monotone push counter
// that makes the (at, seq) order a deterministic total order, exactly
// like the (timestamp, thread index) key of internal/sim's machine
// heap. host < 0 marks an arrival; a completion carries its serving
// host and the request's arrival time.
type event struct {
	at      units.Duration
	seq     uint64
	arrived units.Duration // completion only
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

// replaceTop overwrites the root with e and restores the heap order:
// a pop fused with the push that follows it, in one sift-down.
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

// FNV-64a constants. fnvPrimePow8 is fnvPrime⁸ mod 2⁶⁴: the factor
// seven zero bytes and one more multiply contribute after a word's low
// byte.
const (
	fnvOffset    uint64 = 14695981039346656037
	fnvPrime     uint64 = 1099511628211
	fnvPrimePow8 uint64 = 0x1efac7090aef4a21
)

// hash64 is an FNV-64a fold of the popped event stream, each word fed
// as its 8 little-endian bytes — the bit-identical-event-order witness
// of the determinism contract.
type hash64 struct{ sum uint64 }

func newHash64() hash64 { return hash64{sum: fnvOffset} }

// fold feeds one word. A word below 256 has seven zero high bytes,
// which only multiply by the prime, so it folds in one step.
func (h *hash64) fold(w uint64) {
	if w < 256 {
		h.sum = (h.sum ^ w) * fnvPrimePow8
		return
	}
	s := h.sum
	for i := 0; i < 8; i++ {
		s = (s ^ (w & 0xFF)) * fnvPrime
		w >>= 8
	}
	h.sum = s
}
