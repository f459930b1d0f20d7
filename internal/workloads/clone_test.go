package workloads

import (
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// draw returns the next n blocks of g, each with its own Refs.
func draw(g trace.Generator, n int) []trace.Block {
	out := make([]trace.Block, n)
	for i := range out {
		g.NextBlock(&out[i])
	}
	return out
}

// TestCloneMatchesFresh checks the generator clone contract for every
// workload, on two threads. The source draws cloneAt blocks: past two of
// spark's 3 × 24-block supersteps and into the gather phase of the
// third, past dozens of columnstore's probe blocks and both of oltp's
// phases. The clone must equal a fresh generator that drew as many,
// field for field (reflect.DeepEqual follows pointers, so state that
// never reaches a Block — spark's rank, stencil's grid, coreBound's buf
// — is compared too). The clone then runs ahead first: the source must
// still equal the fresh generator, which an aliased slice or a shared
// RNG breaks, and both must then draw the fresh generator's next blocks.
func TestCloneMatchesFresh(t *testing.T) {
	const cloneAt, ahead = 181, 100
	for _, w := range All() {
		t.Run(w.Name(), func(t *testing.T) {
			for thread := 0; thread < 2; thread++ {
				seed := 42 + uint64(thread)*0x9E37
				src := w.NewGenerator(thread, seed)
				fresh := w.NewGenerator(thread, seed)
				draw(src, cloneAt)
				draw(fresh, cloneAt)
				c, ok := src.(sim.Cloner)
				if !ok {
					t.Fatalf("generator %T has no Clone", src)
				}
				clone := c.Clone()
				if !reflect.DeepEqual(clone, fresh) {
					t.Fatalf("thread %d: clone differs from a fresh generator after %d blocks", thread, cloneAt)
				}
				fromClone := draw(clone, ahead)
				if !reflect.DeepEqual(src, fresh) {
					t.Fatalf("thread %d: drawing from the clone changed its source", thread)
				}
				want := draw(fresh, ahead)
				fromSource := draw(src, ahead)
				if !reflect.DeepEqual(fromClone, want) {
					t.Errorf("thread %d: clone's blocks %d–%d differ from a fresh generator's", thread, cloneAt+1, cloneAt+ahead)
				}
				if !reflect.DeepEqual(fromSource, want) {
					t.Errorf("thread %d: source's blocks %d–%d differ from a fresh generator's after its clone ran", thread, cloneAt+1, cloneAt+ahead)
				}
				if !reflect.DeepEqual(src, clone) || !reflect.DeepEqual(src, fresh) {
					t.Errorf("thread %d: source, clone and fresh generator differ after %d blocks each", thread, cloneAt+ahead)
				}
			}
		})
	}
}
