// Package trace defines the instruction/memory-reference stream that
// connects workload kernels to the machine simulator.
//
// A workload instance produces an endless sequence of Blocks. A Block is a
// short run of committed instructions with an attached list of memory
// references at cache-line granularity, a core-boundedness figure
// (BaseCPI), an explicit memory-level-parallelism structure (Chains — how
// many independent dependence chains the block's misses fall into, which
// is what determines the emergent blocking factor per Eq. 2/3 of the
// paper), and optional I/O traffic.
//
// Addresses are synthetic: workloads allocate regions from an AddressSpace
// and compute addresses from their real data-structure layouts. The
// backing values live in (much smaller) real Go slices; the address stream
// reproduces the full-scale footprint. This "footprint virtualization" is
// what lets a laptop-scale process replay the cache behaviour of a
// several-hundred-GB dataset (see DESIGN.md §2).
package trace

// Ref is one memory reference at cache-line granularity.
type Ref struct {
	Addr uint64 // byte address; the cache model masks to line granularity
	// Write marks a store. Store misses allocate and dirty the line but do
	// not stall the core (store-buffer semantics).
	Write bool
	// NonTemporal marks a streaming store that bypasses the cache
	// hierarchy and writes directly to memory (the paper notes NITS's
	// writeback rate exceeds 100% of misses because of these).
	NonTemporal bool
	// NoPrefetch suppresses prefetcher training for this reference
	// (e.g. TLB-miss-like metadata walks that never form streams).
	NoPrefetch bool
}

// Block is a run of instructions with its memory behaviour.
type Block struct {
	// Instructions committed in this block.
	Instructions uint64
	// BaseCPI is the block's core-limited CPI: the cycles per instruction
	// the block would take with all loads hitting the L1 (data
	// dependencies and functional-unit contention included). This is the
	// per-block contribution to the paper's CPI_cache.
	BaseCPI float64
	// Refs are the block's memory references in program order.
	Refs []Ref
	// Chains is the number of independent dependence chains the block's
	// demand misses divide into: the block's inherent memory-level
	// parallelism. 0 means fully independent (limited only by MSHRs);
	// 1 means a strict pointer-chase.
	Chains int
	// IOBytes is I/O traffic (DMA to memory) attributed to this block.
	IOBytes float64
	// IdleNS is time the thread spends idle after the block (blocked on
	// synchronization, network, or work starvation). It dilutes CPU
	// utilization but not CPI, matching how the paper's counters behave
	// (halted cycles do not dilute CPI, §V.J).
	IdleNS float64
}

// Reset clears a block for reuse, keeping ref capacity.
func (b *Block) Reset() {
	b.Instructions = 0
	b.BaseCPI = 0
	b.Refs = b.Refs[:0]
	b.Chains = 0
	b.IOBytes = 0
	b.IdleNS = 0
}

// AddRef appends a reference.
func (b *Block) AddRef(addr uint64, write bool) {
	b.Refs = append(b.Refs, Ref{Addr: addr, Write: write})
}

// AddNT appends a non-temporal store.
func (b *Block) AddNT(addr uint64) {
	b.Refs = append(b.Refs, Ref{Addr: addr, Write: true, NonTemporal: true})
}

// Generator is the source of a thread's instruction stream. NextBlock must
// fill dst (after resetting it) and is called forever; generators loop
// their data sets to provide steady-state behaviour.
type Generator interface {
	NextBlock(dst *Block)
}

// AddressSpace hands out disjoint synthetic address regions. The zero
// value starts allocating at a non-zero base so that address 0 never
// appears (it is a handy poison value in tests).
type AddressSpace struct {
	next uint64
}

const spaceBase = 1 << 20

// NewAddressSpace returns an AddressSpace that allocates from base
// upward. Threads use disjoint bases so their synthetic footprints do not
// alias in the shared memory simulator's channel/bank mapping.
func NewAddressSpace(base uint64) *AddressSpace {
	if base == 0 {
		base = spaceBase
	}
	return &AddressSpace{next: base}
}

// Alloc reserves size bytes aligned to align (which must be a power of
// two; 0 means 64) and returns the region base.
func (s *AddressSpace) Alloc(size uint64, align uint64) uint64 {
	if align == 0 {
		align = 64
	}
	if s.next == 0 {
		s.next = spaceBase
	}
	base := (s.next + align - 1) &^ (align - 1)
	s.next = base + size
	return base
}

// Region is a convenience wrapper: a base address and size with indexed
// element addressing.
type Region struct {
	Base uint64
	Size uint64
}

// AllocRegion reserves a region of size bytes.
func (s *AddressSpace) AllocRegion(size uint64) Region {
	return Region{Base: s.Alloc(size, 4096), Size: size}
}

// Lines returns the number of cache lines in the region.
func (r Region) Lines(lineSize uint64) uint64 {
	if lineSize == 0 {
		lineSize = 64
	}
	return (r.Size + lineSize - 1) / lineSize
}
