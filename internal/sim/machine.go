// Package sim assembles the simulated machine the paper's measurements
// are taken on: N hardware threads, each with a private cache hierarchy,
// sharing one DDR memory subsystem, with a PMU sampler recording
// characterization time series.
//
// A thread is two parts. Its functional track (track.go) generates the
// thread's blocks and steps them through its caches and prefetcher into
// records; its timing (cpu.Core with a cache.Timing) replays those
// records against the machine's memory and clock. Cache decisions never
// read a clock, so copies of a machine share its tracks and each replays
// only timing.
//
// The event loop always advances the least-advanced thread by one trace
// block, which bounds cross-thread time skew to one block and lets memory
// contention between threads emerge in the shared memsys.Simulator. The
// least-advanced thread is tracked with a binary min-heap over (core
// timestamp, thread index), so each step costs O(log threads) instead of
// a linear rescan, and aggregate progress is a running instruction
// counter maintained per block instead of an O(threads) recount per step.
// Runs have a warm-up phase (caches fill, streams train) after which all
// counters reset and the measured phase begins — mirroring the paper's
// "data was collected during steady-state behavior after varying amounts
// of warm-up time" (§V.I).
package sim

import (
	"context"
	"errors"
	"math"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/memsys"
	"repro/internal/pmu"
	"repro/internal/trace"
	"repro/internal/units"
)

// GeneratorFactory produces the per-thread trace stream. A workload
// implements it; seeds differ per thread so threads are decorrelated but
// runs stay deterministic.
type GeneratorFactory interface {
	NewGenerator(thread int, seed uint64) trace.Generator
}

// Config describes a machine.
type Config struct {
	// Threads is the number of hardware threads (logical processors).
	Threads int
	Core    cpu.Config
	Cache   cache.Config
	Mem     memsys.Config
	// SampleInterval enables PMU time-series sampling when positive.
	SampleInterval units.Duration
	// Seed decorrelates workload generators between runs; thread i uses
	// Seed + i·0x9E37. Zero picks a fixed default.
	Seed uint64
}

// DefaultConfig returns the paper's big-data measurement platform scaled
// to one socket: 16 hardware threads (8 cores with Hyper-Threading),
// 2.5 MiB LLC slice per thread, four channels of DDR3-1867.
func DefaultConfig() Config {
	return Config{
		Threads: 16,
		Core:    cpu.DefaultConfig(),
		Cache:   cache.DefaultConfig(),
		Mem:     memsys.DefaultConfig(),
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Threads <= 0 {
		return errors.New("sim: Threads must be positive")
	}
	if err := c.Core.Validate(); err != nil {
		return err
	}
	if err := c.Cache.Validate(); err != nil {
		return err
	}
	return c.Mem.Validate()
}

// Measurement is the outcome of one measured run: exactly the quantities
// the paper reads from hardware counters, plus the sampled time series.
type Measurement struct {
	Workload string
	Threads  int
	Freq     units.Hertz
	MemGrade memsys.Grade
	Channels int

	Instructions uint64
	CPI          float64 // CPI_eff, aggregate cycles / aggregate instructions
	Utilization  float64

	MPI       float64        // memory reads (demand + prefetch) per instruction
	MPKI      float64        // MPI × 1000
	DemandMPI float64        // demand misses only
	MP        units.Duration // measured average demand-load miss penalty (loaded)
	MPCycles  units.Cycles   // same, in core cycles at Freq
	WBR       float64        // memory writes / MPI reads

	Bandwidth    units.BytesPerSecond // achieved DRAM bandwidth, all threads
	Utilization1 float64              // DRAM bandwidth utilization vs nominal peak
	IOPI         float64              // I/O events per instruction
	IOBandwidth  units.BytesPerSecond

	WallTime units.Duration // simulated duration of the measured phase
	Series   pmu.Series

	Cache cache.Counters  // aggregate over threads
	Mem   memsys.Counters // measured-phase memory counters
}

// MPIxMP returns the x coordinate of the paper's Fig. 3 fits: average miss
// penalty per instruction in core cycles.
func (m Measurement) MPIxMP() float64 { return m.MPI * float64(m.MPCycles) }

// Machine is a runnable simulated platform. The zero value is ready for
// Reset or CopyFrom.
type Machine struct {
	cfg  Config
	mem  *memsys.Simulator
	name string
	// Each thread is its timing, cores[t], replaying its functional
	// track from cursors[t].
	cores   []*cpu.Core
	cursors []cursor
	ioLines uint64

	// retired counts the aggregate instructions this machine simulated
	// since Reset or CopyFrom: warm-ups, re-warms and measured phases.
	// functional counts those of them whose blocks it generated and
	// stepped through the caches itself, rather than replayed from a
	// track another machine had extended.
	retired    uint64
	functional uint64

	// heap holds thread indices ordered by (core timestamp, index): the
	// root is always the least-advanced thread, with ties broken toward
	// the lower index — exactly the thread a linear scan with a strict
	// `<` comparison would pick, so the event order (and therefore every
	// measurement) is bit-identical to the O(threads) loop it replaces.
	heap []int
	// instr is the aggregate instruction count since the last counter
	// reset, maintained incrementally by step (RunBlock retires exactly
	// Block.Instructions per call).
	instr uint64

	// sampler is reused across Runs (Reset keeps its sample storage), and
	// scratch is the per-core cache-counter snapshot buffer measure()
	// aggregates through — both part of the zero-alloc steady state.
	sampler *pmu.Sampler
	scratch cache.Counters
}

// Workload seeding: thread i's generator gets Seed + i*seedStride, with
// defaultSeed standing in for a zero Seed.
const (
	defaultSeed uint64 = 0xC0FFEE
	seedStride  uint64 = 0x9E37
)

// ioSink adapts the shared memory simulator to cpu.IOSink: DMA writes the
// incoming data to successive memory lines from ioBase up, consuming
// channel bandwidth the way the paper's SSD traffic does.
type ioSink struct{ m *Machine }

const ioBase uint64 = 1 << 44

func (s ioSink) DMA(now units.Duration, bytes float64) {
	lineSize := uint64(s.m.cfg.Mem.LineSize)
	n := uint64(math.Ceil(bytes / float64(lineSize)))
	for i := uint64(0); i < n; i++ {
		addr := ioBase + (s.m.ioLines%(1<<18))*lineSize
		s.m.ioLines++
		s.m.mem.Access(now, addr, memsys.Write)
	}
}

// New builds a machine running the given workload on every thread.
func New(cfg Config, name string, factory GeneratorFactory) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if factory == nil {
		return nil, errors.New("sim: nil generator factory")
	}
	m := new(Machine)
	if err := m.Reset(cfg, name, factory); err != nil {
		return nil, err
	}
	return m, nil
}

// Reset rebuilds the machine in place for a new run — typically a
// different workload, thread count, frequency, or memory grade — reusing
// the memory simulator, per-thread cores, tracks (hierarchies and record
// storage) and heap wherever geometry allows, and builds each thread's
// generator from the factory. A track another machine still shares is
// left to it; the thread gets a pooled or new one. A Reset machine is
// bit-identical to a freshly constructed one (reset_test.go asserts this
// measurement-for-measurement), which is
// what lets internal/experiments pool machines across grid points
// instead of re-paying construction per measurement.
func (m *Machine) Reset(cfg Config, name string, factory GeneratorFactory) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if factory == nil {
		return errors.New("sim: nil generator factory")
	}
	if err := m.fit(cfg); err != nil {
		return err
	}
	if err := m.mem.Reset(cfg.Mem); err != nil {
		return err
	}
	for _, c := range m.cores {
		c.Timing().Reset(cfg.Cache)
		if err := c.Reset(cfg.Core); err != nil {
			return err
		}
	}
	for t := range m.heap {
		// All cores start at time zero, so index order is a valid heap.
		m.heap[t] = t
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = defaultSeed
	}
	for t := range m.cursors {
		if err := m.cursors[t].start(cfg.Cache, name, factory.NewGenerator(t, seed+uint64(t)*seedStride)); err != nil {
			return err
		}
	}
	m.cfg = cfg
	m.name = name
	m.instr = 0
	m.retired = 0
	m.functional = 0
	m.ioLines = 0
	return nil
}

// fit gives m cfg.Threads cores, cursors and heap slots, building the
// memory simulator and any core it lacks for cfg (already validated) and
// keeping the rest as they are, and lets go of the tracks of threads
// beyond cfg.Threads. Reset and CopyFrom then overwrite the state they
// need; neither pays to clear what the other sets.
func (m *Machine) fit(cfg Config) error {
	if m.mem == nil {
		mem, err := memsys.NewSimulator(cfg.Mem)
		if err != nil {
			return err
		}
		m.mem = mem
	}
	if cfg.Threads > len(m.cores) && cfg.Threads <= cap(m.cores) {
		// Recover cores parked beyond len by an earlier shrink.
		m.cores = m.cores[:cfg.Threads]
	}
	for t := 0; t < cfg.Threads; t++ {
		if t < len(m.cores) && m.cores[t] != nil {
			continue
		}
		core, err := cpu.New(cfg.Core, cache.NewTiming(cfg.Cache), m.mem, ioSink{m})
		if err != nil {
			return err
		}
		if t < len(m.cores) {
			m.cores[t] = core
		} else {
			m.cores = append(m.cores, core)
		}
	}
	m.cores = m.cores[:cfg.Threads]
	for t := cfg.Threads; t < len(m.cursors); t++ {
		m.cursors[t].drop()
	}
	if cap(m.cursors) >= cfg.Threads {
		m.cursors = m.cursors[:cfg.Threads]
	} else {
		m.cursors = append(m.cursors, make([]cursor, cfg.Threads-len(m.cursors))...)
	}
	if cap(m.heap) >= cfg.Threads {
		m.heap = m.heap[:cfg.Threads]
	} else {
		m.heap = make([]int, cfg.Threads)
	}
	return nil
}

// CopyFrom makes m an exact copy of src's simulated state: m takes src's
// configuration and workload, src's memory simulator, cores (clocks,
// counters and cache timing state), event heap, instruction count and
// I/O cursor, and shares src's functional tracks at src's positions.
// Running m then proceeds exactly as src would: cache decisions never
// read a clock, so a track serves every copy however it is retimed, and
// each block is generated and stepped through the caches once, by
// whichever machine needs it first. src is only read, so several
// machines may copy one source concurrently, and copies may run
// concurrently with each other. Retired and Functional restart at zero.
func (m *Machine) CopyFrom(src *Machine) error {
	if err := m.fit(src.cfg); err != nil {
		return err
	}
	m.mem.CopyFrom(src.mem)
	for t, c := range m.cores {
		c.CopyFrom(src.cores[t])
		m.cursors[t].share(&src.cursors[t])
	}
	copy(m.heap, src.heap)
	m.cfg = src.cfg
	m.name = src.name
	m.instr = src.instr
	m.retired = 0
	m.functional = 0
	m.ioLines = src.ioLines
	return nil
}

// Release lets go of m's tracks, and with them the records m kept alive
// for the machines it shared them with; the last machine to let go of a
// track returns it to a pool that Reset draws from. m is then ready for
// Reset or CopyFrom.
func (m *Machine) Release() {
	for t := range m.cursors {
		m.cursors[t].drop()
	}
}

// Retime turns the two §V.A knobs on a live machine: every core's clock
// and the memory's DDR grade change, while cache contents, prefetcher
// training, channel state and clocks carry over.
func (m *Machine) Retime(freq units.Hertz, grade memsys.Grade) error {
	core, mem := m.cfg.Core, m.cfg.Mem
	core.Freq, mem.Grade = freq, grade
	if err := core.Validate(); err != nil {
		return err
	}
	if err := mem.Validate(); err != nil {
		return err
	}
	m.cfg.Core, m.cfg.Mem = core, mem
	for _, c := range m.cores {
		c.SetFrequency(freq)
	}
	m.mem.SetGrade(grade)
	return nil
}

// SetSampleInterval sets the PMU sampling interval of the machine's next
// measured phase (0 disables sampling). Warm-ups never sample, so a warm
// machine sampled this way and then run with no further warm-up measures
// exactly what a machine built with that interval measures after the
// same warm-up.
func (m *Machine) SetSampleInterval(d units.Duration) { m.cfg.SampleInterval = d }

// Retired returns the aggregate instructions simulated since Reset or
// CopyFrom.
func (m *Machine) Retired() uint64 { return m.retired }

// Functional returns how many of the Retired instructions this machine
// simulated functionally — generated and stepped through the caches —
// rather than replayed from a shared track.
func (m *Machine) Functional() uint64 { return m.functional }

// before reports whether thread a orders before thread b in the event
// heap: earlier timestamp first, lower index on ties.
func (m *Machine) before(a, b int) bool {
	ta, tb := m.cores[a].Now(), m.cores[b].Now()
	return ta < tb || (ta == tb && a < b)
}

// siftDown restores the heap property below position i after the thread
// there advanced. Only the root ever moves (step advances only the
// least-advanced thread, and timestamps are monotone), so one sift per
// step keeps the whole heap valid in O(log threads).
func (m *Machine) siftDown(i int) {
	n := len(m.heap)
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && m.before(m.heap[l], m.heap[least]) {
			least = l
		}
		if r < n && m.before(m.heap[r], m.heap[least]) {
			least = r
		}
		if least == i {
			return
		}
		m.heap[i], m.heap[least] = m.heap[least], m.heap[i]
		i = least
	}
}

// step advances the least-advanced thread by one block and returns its
// index.
func (m *Machine) step() int {
	min := m.heap[0]
	b, generated := m.cursors[min].next()
	m.cores[min].RunBlock(b)
	m.instr += b.Instructions
	m.retired += b.Instructions
	if generated {
		m.functional += b.Instructions
	}
	m.siftDown(0)
	return min
}

// minNow returns the least-advanced thread's timestamp — the heap root,
// for free.
func (m *Machine) minNow() units.Duration {
	return m.cores[m.heap[0]].Now()
}

func (m *Machine) snapshot(start units.Duration) pmu.Snapshot {
	var s pmu.Snapshot
	freq := m.cfg.Core.Freq
	for _, c := range m.cores {
		ctr := c.Counters()
		s.Instructions += ctr.Instructions
		s.Cycles += ctr.Cycles(freq)
		s.BusyNS += ctr.BusyNS
		s.IOBytes += ctr.IOBytes
	}
	s.WallNS = float64(m.minNow()-start) * float64(m.cfg.Threads)
	mc := m.mem.Counters()
	s.MemBytes = float64(mc.BytesRead + mc.BytesWritten)
	return s
}

// ctxCheckSteps is how many event-loop steps run between cancellation
// polls. At ~500 instructions per block a poll lands every ~500k
// instructions — a few hundred microseconds of wall time at full scale —
// so cancellation is prompt without a per-step atomic load.
const ctxCheckSteps = 1024

// Warm runs n more aggregate instructions (caches fill, streams train)
// without touching the counters. Cancelling ctx stops it promptly and
// returns the context's error.
func (m *Machine) Warm(ctx context.Context, n uint64) error {
	target := m.instr + n
	for steps := 0; m.instr < target; steps++ {
		if steps%ctxCheckSteps == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		m.step()
	}
	return nil
}

// Run warms for warmupInstr aggregate instructions, then measures
// measureInstr more and returns the measured-phase Measurement.
// Cancelling ctx stops the run promptly (the loop polls every
// ctxCheckSteps blocks) and returns the context's error; counters are
// left as they were at the interrupted step, so a fresh machine is
// required for a retry.
func (m *Machine) Run(ctx context.Context, warmupInstr, measureInstr uint64) (Measurement, error) {
	if measureInstr == 0 {
		return Measurement{}, errors.New("sim: measureInstr must be positive")
	}
	if err := m.Warm(ctx, warmupInstr); err != nil {
		return Measurement{}, err
	}
	// Reset counters for the measured phase; cache/stream state persists.
	for _, c := range m.cores {
		c.ResetCounters()
	}
	m.mem.ResetCounters()
	m.instr = 0

	start := m.minNow()
	sampler := m.sampler
	if sampler == nil {
		sampler = pmu.NewSampler(m.cfg.SampleInterval)
		m.sampler = sampler
	} else {
		sampler.Reset(m.cfg.SampleInterval)
	}
	sampler.Record(start, m.snapshot(start))
	next := start + m.cfg.SampleInterval

	steps := 0
	for m.instr < measureInstr {
		if steps%ctxCheckSteps == 0 {
			if err := ctx.Err(); err != nil {
				return Measurement{}, err
			}
		}
		m.step()
		steps++
		if sampler.Enabled() {
			for now := m.minNow(); now >= next; next += m.cfg.SampleInterval {
				sampler.Record(next, m.snapshot(start))
			}
		}
	}
	return m.measure(start, sampler), nil
}

func (m *Machine) measure(start units.Duration, sampler *pmu.Sampler) Measurement {
	freq := m.cfg.Core.Freq
	var agg cache.Counters
	agg.Levels = make([]cache.LevelCounters, len(m.cfg.Cache.Levels))
	var instr, ioEvents uint64
	var cycles, busy, idle, ioBytes float64
	for _, c := range m.cores {
		ctr := c.Counters()
		instr += ctr.Instructions
		cycles += ctr.Cycles(freq)
		busy += ctr.BusyNS
		idle += ctr.IdleNS
		ioBytes += ctr.IOBytes
		ioEvents += ctr.IOEvents
		c.Timing().CountersInto(&m.scratch)
		cc := &m.scratch
		for i := range agg.Levels {
			agg.Levels[i].Accesses += cc.Levels[i].Accesses
			agg.Levels[i].Hits += cc.Levels[i].Hits
			agg.Levels[i].DemandMisses += cc.Levels[i].DemandMisses
			agg.Levels[i].Writebacks += cc.Levels[i].Writebacks
		}
		agg.MemDemandReads += cc.MemDemandReads
		agg.MemPrefReads += cc.MemPrefReads
		agg.MemWritebacks += cc.MemWritebacks
		agg.MemNTWrites += cc.MemNTWrites
		agg.PrefIssued += cc.PrefIssued
		agg.PrefHits += cc.PrefHits
		agg.PrefLate += cc.PrefLate
		agg.DemandLoadMisses += cc.DemandLoadMisses
		agg.DemandMissLatency += cc.DemandMissLatency
	}

	wall := m.minNow() - start
	mc := m.mem.Counters()
	meas := Measurement{
		Workload:     m.name,
		Threads:      m.cfg.Threads,
		Freq:         freq,
		MemGrade:     m.cfg.Mem.Grade,
		Channels:     m.cfg.Mem.Channels,
		Instructions: instr,
		WallTime:     wall,
		Series:       sampler.Series(),
		Cache:        agg,
		Mem:          mc,
	}
	if instr > 0 {
		meas.CPI = cycles / float64(instr)
		meas.MPI = agg.MPI(instr)
		meas.MPKI = meas.MPI * 1000
		meas.DemandMPI = float64(agg.MemDemandReads) / float64(instr)
		meas.IOPI = float64(ioEvents) / float64(instr)
	}
	if busy+idle > 0 {
		meas.Utilization = busy / (busy + idle)
	}
	meas.MP = agg.AvgMissPenalty()
	meas.MPCycles = meas.MP.Cycles(freq)
	meas.WBR = agg.WBR()
	if sec := wall.Seconds(); sec > 0 {
		meas.Bandwidth = units.BytesPerSecond(float64(mc.BytesRead+mc.BytesWritten) / sec)
		meas.IOBandwidth = units.BytesPerSecond(ioBytes / sec)
	}
	if peak := m.cfg.Mem.NominalPeak(); peak > 0 {
		meas.Utilization1 = float64(meas.Bandwidth) / float64(peak)
	}
	return meas
}
