package cluster

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/units"
)

// heapTimes are the timestamps TestEventHeapOrder draws from: zero,
// the smallest subnormal, integral and non-integral nanoseconds, values
// whose bits differ only in the low mantissa, and +Inf. There are few
// enough that most comparisons tie on at and seq decides.
var heapTimes = []units.Duration{
	0, units.Duration(math.SmallestNonzeroFloat64), 0.25, 1, 1.5, 3,
	2.5e7, units.Duration(math.Nextafter(2.5e7, 3e7)), 3.7e12 + 0.125,
	units.Duration(math.Inf(1)),
}

// TestEventHeapOrder drives random push, pop and replace-top sequences
// against a sorted (at, seq) reference, whose float comparison the
// heap's bitwise order must agree with.
func TestEventHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var h eventHeap
		var ref []event
		var seq uint64
		times := heapTimes[:2+rng.Intn(len(heapTimes)-1)]
		next := func() event {
			e := event{at: times[rng.Intn(len(times))], seq: seq, tenant: int32(rng.Intn(3)), host: -1}
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
