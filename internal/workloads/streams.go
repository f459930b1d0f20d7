package workloads

import "repro/internal/trace"

// Shared address-stream helpers. Generators emit one Ref per distinct
// cache line touched (the L1 absorbs same-line accesses; emitting per-line
// keeps simulation cost proportional to cache events, not loads).

const lineSize = 64

// seqStream walks a region one cache line at a time, wrapping. It models
// scans: column segments, CSR edge arrays, stencil sweeps, log appends.
type seqStream struct {
	region trace.Region
	line   uint64
}

func newSeqStream(r trace.Region) *seqStream { return &seqStream{region: r} }

// next returns the next sequential line address.
func (s *seqStream) next() uint64 {
	addr := s.region.Base + (s.line*lineSize)%s.region.Size
	s.line++
	return addr
}

// stridedStream walks a region with a fixed line stride, as stencil codes
// sweeping a non-unit dimension do. Stride 1 degenerates to seqStream.
type stridedStream struct {
	region trace.Region
	pos    uint64
	stride uint64
}

func newStridedStream(r trace.Region, strideLines uint64) *stridedStream {
	if strideLines == 0 {
		strideLines = 1
	}
	return &stridedStream{region: r, stride: strideLines}
}

func (s *stridedStream) next() uint64 {
	addr := s.region.Base + (s.pos*lineSize)%s.region.Size
	s.pos += s.stride
	return addr
}

// randStream returns uniformly random line addresses within a region:
// hash probes, row fetches, vertex gathers.
type randStream struct {
	region trace.Region
	rng    *trace.RNG
	lines  uint64
}

func newRandStream(r trace.Region, rng *trace.RNG) *randStream {
	return &randStream{region: r, rng: rng, lines: r.Lines(lineSize)}
}

func (s *randStream) next() uint64 {
	return s.region.Base + s.rng.Uint64n(s.lines)*lineSize
}

// zipfStream returns skewed random line addresses (hot/cold object
// populations: memcached keys, B-tree upper levels).
type zipfStream struct {
	region trace.Region
	rng    *trace.RNG
	lines  uint64
	skew   float64
}

func newZipfStream(r trace.Region, rng *trace.RNG, skew float64) *zipfStream {
	return &zipfStream{region: r, rng: rng, lines: r.Lines(lineSize), skew: skew}
}

func (s *zipfStream) next() uint64 {
	return s.region.Base + s.rng.Zipf(s.lines, s.skew)*lineSize
}
