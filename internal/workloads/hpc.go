package workloads

import "repro/internal/trace"

// HPC proxy workloads (§III.C): SPEC CPU2006 floating-point components
// chosen by the paper for their high memory bandwidth demand ("milc",
// "soplex", "bwaves", "wrf"), run rate-style — one independent copy per
// hardware thread, no sharing, no I/O. Per-workload Table 5 cells were
// lost in extraction; targets are consistent with the Table 6 class means
// (CPI_cache 0.75, BF 0.07, MPKI 26.7, WBR 27%):
//
//	bwaves  CPI_cache 0.65  BF 0.05  MPKI 32.0  WBR 30%
//	milc    CPI_cache 0.70  BF 0.06  MPKI 30.0  WBR 35%
//	soplex  CPI_cache 0.85  BF 0.11  MPKI 25.0  WBR 25%
//	wrf     CPI_cache 0.80  BF 0.06  MPKI 19.8  WBR 18%
//
// The kernels are stencil/sparse sweeps: several sequential read streams
// (fully covered by the stream prefetcher — the regular access the paper
// credits for the low HPC blocking factor), a sequential write stream
// (write-allocate fills plus writebacks), and a small indirect-gather
// component (dependent indexing) that carries the residual latency
// sensitivity. The paper fitted HPC with only six hardware threads per
// socket (§V.N) to stay out of bandwidth saturation; FitThreads records
// that.

type stencilParams struct {
	name         string
	instr        uint64
	baseCPI      float64
	readStreams  int
	streamLines  float64 // sequential read lines per block
	strideLines  uint64  // stream stride (wrf sweeps a non-unit dimension)
	gathers      float64 // dependent indirect reads per block
	gatherChains int
	writeLines   float64 // sequential write lines per block
	regionMiB    uint64
	fpWork       int // grid points a block advances the sweep by
}

type stencil struct {
	p       stencilParams
	reads   []*stridedStream
	writes  *seqStream
	gather  trace.Region
	index   []uint32 // real index array driving the gathers
	cursor  int      // sweep position, which picks the next gather index
	carryS  float64
	carryG  float64
	carryW  float64
	gatherH uint64
}

func newStencil(p stencilParams, thread int, seed uint64) trace.Generator {
	rng := trace.NewRNG(seed ^ uint64(len(p.name))<<8 ^ 0x59EC)
	space := trace.NewAddressSpace(threadBase(thread))
	s := &stencil{
		p:      p,
		writes: newSeqStream(space.AllocRegion(p.regionMiB / 4 << 20)),
		gather: space.AllocRegion(p.regionMiB / 2 << 20),
		index:  make([]uint32, 8192),
	}
	for i := 0; i < p.readStreams; i++ {
		s.reads = append(s.reads, newStridedStream(space.AllocRegion(p.regionMiB<<20), p.strideLines))
	}
	for i := range s.index {
		s.index[i] = uint32(rng.Uint64())
	}
	return s
}

func (s *stencil) NextBlock(b *trace.Block) {
	p := s.p
	b.Instructions = p.instr
	b.BaseCPI = p.baseCPI
	b.Chains = p.gatherChains

	s.cursor += p.fpWork

	// Sequential read streams, round-robin.
	s.carryS += p.streamLines
	for i := 0; s.carryS >= 1; s.carryS-- {
		b.AddRef(s.reads[i%len(s.reads)].next(), false)
		i++
	}
	// Indirect gathers: the address comes from the real index array.
	s.carryG += p.gathers
	lines := s.gather.Lines(lineSize)
	for ; s.carryG >= 1; s.carryG-- {
		s.gatherH = hash64(s.gatherH + uint64(s.index[s.cursor%len(s.index)]))
		b.AddRef(s.gather.Base+s.gatherH%lines*lineSize, false)
	}
	// Output stream.
	s.carryW += p.writeLines
	for ; s.carryW >= 1; s.carryW-- {
		b.AddRef(s.writes.next(), true)
	}
}

func registerStencil(p stencilParams) Workload {
	return register(Workload{
		name:       p.name,
		class:      HPC,
		fitThreads: 6,
		newGen: func(thread int, seed uint64) trace.Generator {
			return newStencil(p, thread, seed)
		},
	})
}

// Bwaves proxies 410.bwaves: blast-wave CFD, the most bandwidth-hungry
// component (large dense block-tridiagonal sweeps).
var Bwaves = registerStencil(stencilParams{
	name: "bwaves", instr: 400, baseCPI: 0.74,
	readStreams: 3, streamLines: 8.3, strideLines: 1,
	gathers: 0.64, gatherChains: 2,
	writeLines: 3.84, regionMiB: 20, fpWork: 48,
})

// Milc proxies 433.milc: lattice QCD with SU(3) matrix operations —
// streaming through lattice fields with some indirection.
var Milc = registerStencil(stencilParams{
	name: "milc", instr: 400, baseCPI: 0.74,
	readStreams: 3, streamLines: 6.9, strideLines: 1,
	gathers: 0.72, gatherChains: 2,
	writeLines: 4.2, regionMiB: 16, fpWork: 40,
})

// Soplex proxies 450.soplex: a sparse LP simplex solver — the least
// regular of the four, with the highest residual latency sensitivity.
var Soplex = registerStencil(stencilParams{
	name: "soplex", instr: 400, baseCPI: 0.89,
	readStreams: 2, streamLines: 6.4, strideLines: 1,
	gathers: 0.85, gatherChains: 1,
	writeLines: 2.5, regionMiB: 13, fpWork: 24,
})

// Wrf proxies 481.wrf: weather modelling — multi-dimensional stencils,
// here with a non-unit stride on part of the sweep.
var Wrf = registerStencil(stencilParams{
	name: "wrf", instr: 400, baseCPI: 0.80,
	readStreams: 4, streamLines: 6.0, strideLines: 1,
	gathers: 0.48, gatherChains: 2,
	writeLines: 1.43, regionMiB: 14, fpWork: 32,
})

// Core-bound SPEC proxies: the cluster near the origin of Fig. 6 ("some
// components of the SPEC CPU suite also exhibit this characteristic").
// Tiny footprints that live in the L2/LLC, negligible MPKI, negligible
// blocking factor.

type coreBound struct {
	rng     *trace.RNG
	working *randStream
	cold    *seqStream
	out     *seqStream
	instr   uint64
	baseCPI float64
	carry   float64
	missPM  float64 // misses per 1000 instructions
}

func newCoreBound(thread int, seed uint64, instr uint64, baseCPI, missPM float64, footprintKiB uint64) trace.Generator {
	rng := trace.NewRNG(seed ^ 0xC07E)
	space := trace.NewAddressSpace(threadBase(thread))
	c := &coreBound{
		rng:     rng,
		working: newRandStream(space.AllocRegion(footprintKiB<<10), rng),
		cold:    newSeqStream(space.AllocRegion(8 << 20)),
		out:     newSeqStream(space.AllocRegion(1 << 20)),
		instr:   instr,
		baseCPI: baseCPI,
		missPM:  missPM,
	}
	// Skip 1 024 draws: working shares this RNG, and its address stream
	// (the raytrace and interp traces) starts after them.
	for i := 0; i < 1024; i++ {
		rng.Uint64()
	}
	return c
}

func (c *coreBound) NextBlock(b *trace.Block) {
	b.Instructions = c.instr
	b.BaseCPI = c.baseCPI
	b.Chains = 8
	// Cache-resident touches.
	for i := 0; i < 4; i++ {
		b.AddRef(c.working.next(), false)
	}
	// Rare cold misses (mostly reads, occasionally a result store).
	c.carry += c.missPM * float64(c.instr) / 1000
	for ; c.carry >= 1; c.carry-- {
		if c.rng.Bernoulli(0.3) {
			b.AddRef(c.out.next(), true)
		} else {
			b.AddRef(c.cold.next(), false)
		}
	}
}

// RayTrace proxies a core-bound SPECfp component (povray-like): intense
// arithmetic over a scene that fits in cache.
var RayTrace = register(Workload{
	name:       "raytrace",
	class:      Micro,
	fitThreads: 16,
	newGen: func(thread int, seed uint64) trace.Generator {
		return newCoreBound(thread, seed, 1000, 1.05, 0.06, 96)
	},
})

// Interp proxies a core-bound SPECint component (perlbench-like): branchy
// interpretation over small hot data.
var Interp = register(Workload{
	name:       "interp",
	class:      Micro,
	fitThreads: 16,
	newGen: func(thread int, seed uint64) trace.Generator {
		return newCoreBound(thread, seed, 1000, 1.30, 0.15, 128)
	},
})
