package workloads

import (
	"slices"

	"repro/internal/trace"
)

// Generator clones. sim.Machine.CopyFrom copies a warm machine by cloning
// each thread's generator, so a clone must be exact and independent: it
// draws the same blocks the source would draw next, and drawing from
// either leaves the other untouched. Every Clone below keeps to one
// contract:
//   - the clone owns its RNG, and each randStream or zipfStream of the
//     clone draws from the clone's RNG, as the source's streams share
//     the source's;
//   - it owns its cursors (seqStream, stridedStream);
//   - it owns a copy of every slice NextBlock writes;
//   - it shares every slice NextBlock only reads (dictionaries, CSR
//     arrays, index and key windows), so a clone costs a few small
//     allocations, not a second data set.
//
// TestCloneMatchesFresh checks the contract for every workload.

// own returns a pointer to a copy of *p.
func own[T any](p *T) *T {
	c := *p
	return &c
}

// on returns a copy of s that draws from rng.
func (s *randStream) on(rng *trace.RNG) *randStream {
	c := *s
	c.rng = rng
	return &c
}

// on returns a copy of s that draws from rng.
func (s *zipfStream) on(rng *trace.RNG) *zipfStream {
	c := *s
	c.rng = rng
	return &c
}

// Clone implements the generator clone contract; dict and packed are
// shared.
func (c *columnStore) Clone() trace.Generator {
	d := *c
	d.rng = own(c.rng)
	d.scan = own(c.scan)
	d.out = own(c.out)
	d.pending = slices.Clone(c.pending)
	return &d
}

// Clone implements the generator clone contract; bits is shared.
func (n *nits) Clone() trace.Generator {
	d := *n
	d.rng = own(n.rng)
	d.doc = own(n.doc)
	d.nt = own(n.nt)
	return &d
}

// Clone implements the generator clone contract; rle is shared.
func (p *proximity) Clone() trace.Generator {
	d := *p
	d.rng = own(p.rng)
	d.working = p.working.on(d.rng)
	d.out = own(p.out)
	return &d
}

// Clone implements the generator clone contract; rowPtr and colIdx are
// shared.
func (s *spark) Clone() trace.Generator {
	d := *s
	d.rng = own(s.rng)
	d.rank = slices.Clone(s.rank)
	d.edges = own(s.edges)
	d.outStr = own(s.outStr)
	return &d
}

// Clone implements the generator clone contract; keys is shared.
func (o *oltp) Clone() trace.Generator {
	d := *o
	d.rng = own(o.rng)
	d.upper = o.upper.on(d.rng)
	d.log = own(o.log)
	return &d
}

// Clone implements the generator clone contract.
func (j *jvm) Clone() trace.Generator {
	d := *j
	d.rng = own(j.rng)
	d.eden = own(j.eden)
	d.gc = own(j.gc)
	return &d
}

// Clone implements the generator clone contract.
func (v *virtualization) Clone() trace.Generator {
	d := *v
	d.rng = own(v.rng)
	d.buf = own(v.buf)
	d.vmMeta = v.vmMeta.on(d.rng)
	return &d
}

// Clone implements the generator clone contract.
func (w *webCache) Clone() trace.Generator {
	d := *w
	d.rng = own(w.rng)
	d.meta = w.meta.on(d.rng)
	return &d
}

// Clone implements the generator clone contract; index is shared.
func (s *stencil) Clone() trace.Generator {
	d := *s
	d.rng = own(s.rng)
	d.reads = make([]*stridedStream, len(s.reads))
	for i, r := range s.reads {
		d.reads[i] = own(r)
	}
	d.writes = own(s.writes)
	d.grid = slices.Clone(s.grid)
	return &d
}

// Clone implements the generator clone contract.
func (c *coreBound) Clone() trace.Generator {
	d := *c
	d.rng = own(c.rng)
	d.working = c.working.on(d.rng)
	d.cold = own(c.cold)
	d.out = own(c.out)
	d.buf = slices.Clone(c.buf)
	return &d
}
