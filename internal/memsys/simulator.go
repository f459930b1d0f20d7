package memsys

import (
	"fmt"
	"math/bits"

	"repro/internal/units"
)

// Op distinguishes memory request types.
type Op int

// Request operations.
const (
	Read Op = iota
	Write
)

// String names the operation ("read" or "write").
func (o Op) String() string {
	if o == Write {
		return "write"
	}
	return "read"
}

// Counters accumulates traffic statistics for a Simulator.
type Counters struct {
	Reads, Writes    uint64
	BytesRead        units.Bytes
	BytesWritten     units.Bytes
	TotalReadLatency units.Duration // sum of read latencies (arrival→data)
	TotalQueueDelay  units.Duration // sum of queuing components, all ops
	Turnarounds      uint64
	BankConflicts    uint64
	BusWait          units.Duration // queue time attributable to the channel bus
	BankWait         units.Duration // queue time attributable to bank recycle
	LastCompletion   units.Duration // completion time of the latest-finishing request
	FirstArrival     units.Duration
	haveFirstArrival bool
	MaxObservedQueue units.Duration
}

// AvgQueueDelay returns the mean queuing delay across all requests.
func (c Counters) AvgQueueDelay() units.Duration {
	n := c.Reads + c.Writes
	if n == 0 {
		return 0
	}
	return units.Duration(float64(c.TotalQueueDelay) / float64(n))
}

// Bandwidth returns achieved bandwidth over the busy interval
// [FirstArrival, LastCompletion].
func (c Counters) Bandwidth() units.BytesPerSecond {
	span := (c.LastCompletion - c.FirstArrival).Seconds()
	if span <= 0 {
		return 0
	}
	return units.BytesPerSecond(float64(c.BytesRead+c.BytesWritten) / span)
}

// Simulator is a DDR channel model. Each request is routed to a channel
// and bank by address, waits for the channel's accumulated bus backlog
// and for its bank to recycle, pays a turnaround penalty when the channel
// switches direction, occupies the bus for the line transfer time, and
// (for reads) returns data one compulsory latency after service starts.
//
// The bus queue uses the Lindley virtual-waiting-time recursion: each
// channel keeps a backlog that grows by the service time of every request
// and drains as the arrival clock advances. This makes the model robust
// to the bounded arrival-time skew of the machine simulator's event loop
// (which advances the least-advanced thread first): a request timestamped
// slightly behind the channel clock sees the genuine backlog instead of a
// phantom wait behind later-timestamped requests.
type Simulator struct {
	cfg Config

	lastSeen  []units.Duration // per-channel: newest arrival timestamp
	backlog   []units.Duration // per-channel: outstanding bus service time
	lastOp    []Op             // per-channel: direction of last service
	gapEWMA   []float64        // per-channel: smoothed inter-arrival gap (ns)
	rng       rngState
	counters  Counters
	transfer  units.Duration // line transfer time for this grade
	lineShift uint           // log2(LineSize), which Validate holds to a power of two
	chanMask  uint64         // Channels−1 when Channels is a power of two, else noMask
}

// rngState is a tiny xorshift64* generator for the stochastic bank-
// conflict model; deterministic per simulator.
type rngState uint64

// rngSeed is the fixed construction-time state of the bank-model RNG;
// Reset restores it so a reused simulator replays a fresh one exactly.
const rngSeed rngState = 0x9E3779B97F4A7C15

// idleGapNS is the gapEWMA initial value: effectively idle until traffic
// arrives.
const idleGapNS = 1e6

func (r *rngState) next() float64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = rngState(x)
	return float64((x*0x2545F4914F6CDD1D)>>11) / (1 << 53)
}

// NewSimulator builds a Simulator for cfg.
func NewSimulator(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Simulator{
		cfg:       cfg,
		lastSeen:  make([]units.Duration, cfg.Channels),
		backlog:   make([]units.Duration, cfg.Channels),
		lastOp:    make([]Op, cfg.Channels),
		gapEWMA:   make([]float64, cfg.Channels),
		rng:       rngSeed,
		transfer:  cfg.Grade.LineTransferTime(cfg.LineSize),
		lineShift: lineShift(cfg),
		chanMask:  chanMask(cfg),
	}
	for i := range s.gapEWMA {
		s.gapEWMA[i] = idleGapNS
	}
	return s, nil
}

// Reset restores the simulator to its just-built state for cfg — idle
// channels, reseeded bank RNG, zero counters — reusing the per-channel
// slices when the channel count is unchanged. A reused simulator is
// bit-identical to a fresh NewSimulator (sim/reset_test.go drives this
// through the whole machine).
func (s *Simulator) Reset(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Channels == len(s.lastSeen) {
		clear(s.lastSeen)
		clear(s.backlog)
		clear(s.lastOp)
	} else {
		s.lastSeen = make([]units.Duration, cfg.Channels)
		s.backlog = make([]units.Duration, cfg.Channels)
		s.lastOp = make([]Op, cfg.Channels)
		s.gapEWMA = make([]float64, cfg.Channels)
	}
	for i := range s.gapEWMA {
		s.gapEWMA[i] = idleGapNS
	}
	s.rng = rngSeed
	s.counters = Counters{}
	s.transfer = cfg.Grade.LineTransferTime(cfg.LineSize)
	s.lineShift = lineShift(cfg)
	s.chanMask = chanMask(cfg)
	s.cfg = cfg
	return nil
}

func lineShift(cfg Config) uint { return uint(bits.TrailingZeros64(uint64(cfg.LineSize))) }

// noMask marks a channel count that is not a power of two: a line's
// channel is then the line number modulo Channels.
const noMask = ^uint64(0)

// chanMask returns the mask that picks a line's channel, or noMask.
func chanMask(cfg Config) uint64 {
	if n := uint64(cfg.Channels); n&(n-1) == 0 {
		return n - 1
	}
	return noMask
}

// channel returns the channel serving line: the line number modulo
// Channels, a mask when Channels is a power of two.
func (s *Simulator) channel(line uint64) int {
	if s.chanMask != noMask {
		return int(line & s.chanMask)
	}
	return int(line % uint64(s.cfg.Channels))
}

// Config returns the simulator's configuration.
func (s *Simulator) Config() Config { return s.cfg }

// SetGrade retimes the channels to another DDR grade (the BIOS
// memory-speed knob of §V.A): later requests pay the grade's line
// transfer time, while channel backlogs, arrival clocks, the bank RNG
// and the counters carry over.
func (s *Simulator) SetGrade(g Grade) {
	s.cfg.Grade = g
	s.transfer = g.LineTransferTime(s.cfg.LineSize)
}

// CopyFrom makes s an exact copy of src — configuration, per-channel
// state, bank RNG and counters — reusing s's slices when they have
// capacity. src is only read, so concurrent copies of one source are
// safe.
func (s *Simulator) CopyFrom(src *Simulator) {
	s.cfg = src.cfg
	s.lastSeen = append(s.lastSeen[:0], src.lastSeen...)
	s.backlog = append(s.backlog[:0], src.backlog...)
	s.lastOp = append(s.lastOp[:0], src.lastOp...)
	s.gapEWMA = append(s.gapEWMA[:0], src.gapEWMA...)
	s.rng = src.rng
	s.counters = src.counters
	s.transfer = src.transfer
	s.lineShift = src.lineShift
	s.chanMask = src.chanMask
}

// Result describes the outcome of one request.
type Result struct {
	// Latency is arrival→data for reads (includes compulsory latency) and
	// arrival→drain for writes (writes are posted; the core normally does
	// not wait on them, but the writeback consumes bandwidth).
	Latency units.Duration
	// QueueDelay is the portion of Latency spent waiting for the channel
	// bus and bank, i.e. Latency − compulsory (reads) or the wait alone
	// (writes).
	QueueDelay units.Duration
	// Completion is the absolute time the request finished using the bus.
	Completion units.Duration
}

// Access serves one cache-line request arriving at time now.
func (s *Simulator) Access(now units.Duration, addr uint64, op Op) Result {
	if !s.counters.haveFirstArrival {
		s.counters.FirstArrival = now
		s.counters.haveFirstArrival = true
	}

	line := addr >> s.lineShift
	ch := s.channel(line)

	// Lindley recursion on the channel bus: drain the backlog by the
	// arrival-clock advance, then serve this request behind what remains.
	// The clock advances at the stream's leading edge, which makes the
	// recursion robust to the bounded timestamp skew of the machine's
	// event loop (see the type comment).
	if now > s.lastSeen[ch] {
		elapsed := now - s.lastSeen[ch]
		s.lastSeen[ch] = now
		if s.backlog[ch] > elapsed {
			s.backlog[ch] -= elapsed
		} else {
			s.backlog[ch] = 0
		}
		// Track the smoothed inter-arrival gap for the bank model.
		g := float64(elapsed)
		s.gapEWMA[ch] = 0.98*s.gapEWMA[ch] + 0.02*g
	}
	t := s.lastSeen[ch]
	busWait := s.backlog[ch]
	s.counters.BusWait += busWait

	// Stochastic bank model: with B banks per channel and smoothed
	// per-channel arrival gap g, a request finds its bank busy with
	// probability ≈ BankCycle/(g×B) and then waits a uniform residual of
	// the bank cycle. Rate-based rather than timestamp-based, so it is
	// immune to event-loop skew; the trade-off is that it assumes
	// requests spread across banks (pathological single-bank strides are
	// not penalized — see DESIGN.md).
	var bankWait units.Duration
	if g := s.gapEWMA[ch]; g > 0 {
		p := float64(s.cfg.BankCycle) / (g * float64(s.cfg.BanksPerChannel))
		if p > 1 {
			p = 1
		}
		if s.rng.next() < p {
			s.counters.BankConflicts++
			w := units.Duration(s.rng.next() * float64(s.cfg.BankCycle))
			s.counters.BankWait += w
			bankWait = w
		}
	}
	wait := busWait + bankWait

	service := s.transfer + s.cfg.RequestOverhead
	if s.lastOp[ch] != op && (s.counters.Reads+s.counters.Writes) > 0 {
		service += s.cfg.TurnaroundPenalty
		s.counters.Turnarounds++
	}

	completion := t + wait + service
	// Only the bus service time joins the bus backlog: a bank stall
	// delays this request while the bus serves other banks.
	s.backlog[ch] += service
	s.lastOp[ch] = op

	queue := wait + service - s.transfer
	var latency units.Duration
	switch op {
	case Read:
		// Data arrives one compulsory latency after service begins; the
		// transfer itself is folded into the compulsory figure, which is
		// quoted end-to-end in the paper.
		latency = queue + s.cfg.Compulsory
		s.counters.Reads++
		s.counters.BytesRead += s.cfg.LineSize
		s.counters.TotalReadLatency += latency
	case Write:
		latency = queue + s.transfer
		s.counters.Writes++
		s.counters.BytesWritten += s.cfg.LineSize
	default:
		panic(fmt.Sprintf("memsys: unknown op %d", op))
	}
	s.counters.TotalQueueDelay += queue
	if queue > s.counters.MaxObservedQueue {
		s.counters.MaxObservedQueue = queue
	}
	if completion > s.counters.LastCompletion {
		s.counters.LastCompletion = completion
	}
	return Result{Latency: latency, QueueDelay: queue, Completion: completion}
}

// Counters returns a snapshot of the accumulated statistics.
func (s *Simulator) Counters() Counters { return s.counters }

// ResetCounters clears statistics without disturbing channel/bank state,
// so measurement can begin after warm-up.
func (s *Simulator) ResetCounters() { s.counters = Counters{} }
