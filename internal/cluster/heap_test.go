package cluster

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/units"
)

// TestEventHeapOrder drives random push, pop and replace-top sequences
// against a sorted (at, seq) reference. Timestamps come from a handful
// of values, so most comparisons tie on at and seq decides.
func TestEventHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var h eventHeap
		var ref []event
		var seq uint64
		next := func() event {
			e := event{at: units.Duration(rng.Intn(4)), seq: seq, tenant: int32(rng.Intn(3)), host: -1}
			seq++
			return e
		}
		sortRef := func() {
			sort.Slice(ref, func(i, j int) bool {
				if ref[i].at != ref[j].at {
					return ref[i].at < ref[j].at
				}
				return ref[i].seq < ref[j].seq
			})
		}
		checkRoot := func(op string) {
			if len(h) != len(ref) {
				t.Fatalf("trial %d %s: heap holds %d events, reference %d", trial, op, len(h), len(ref))
			}
			if len(h) > 0 && h[0] != ref[0] {
				t.Fatalf("trial %d %s: root %+v, want %+v", trial, op, h[0], ref[0])
			}
		}
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(3); {
			case op == 0 || len(h) == 0:
				e := next()
				h.push(e)
				ref = append(ref, e)
				sortRef()
				checkRoot("push")
			case op == 1:
				h.pop()
				ref = ref[1:]
				checkRoot("pop")
			default:
				e := next()
				h.replaceTop(e)
				ref[0] = e
				sortRef()
				checkRoot("replace-top")
			}
		}
		for len(h) > 0 {
			h.pop()
			ref = ref[1:]
			checkRoot("drain")
		}
	}
}
