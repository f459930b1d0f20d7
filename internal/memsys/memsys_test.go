package memsys

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

// DDR4_2400 is a grade no experiment runs; String names it by generation.
const DDR4_2400 Grade = 2400

func TestGradeString(t *testing.T) {
	if DDR3_1867.String() != "DDR3-1867" {
		t.Fatalf("got %q", DDR3_1867.String())
	}
	if DDR4_2400.String() != "DDR4-2400" {
		t.Fatalf("got %q", DDR4_2400.String())
	}
}

func TestGradeBandwidthArithmetic(t *testing.T) {
	// DDR3-1867: 1.867 GT/s × 8 B = 14.936 GB/s per channel.
	got := DDR3_1867.ChannelRawBandwidth().GBps()
	if math.Abs(got-14.936) > 0.001 {
		t.Fatalf("channel raw BW = %v, want 14.936", got)
	}
	// 64 B line transfer ≈ 4.29 ns.
	lt := DDR3_1867.LineTransferTime(64).Nanoseconds()
	if math.Abs(lt-4.285) > 0.01 {
		t.Fatalf("line transfer = %v ns, want ≈4.29", lt)
	}
}

func TestDefaultConfigMatchesPaperBaseline(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	// §VI.C.2: raw ≈ 59.7 GB/s, effective ≈ 42 GB/s (≈70% efficiency).
	if got := cfg.RawBandwidth().GBps(); math.Abs(got-59.7) > 0.2 {
		t.Fatalf("raw = %v, want ≈59.7", got)
	}
	if got := cfg.NominalPeak().GBps(); got < 40 || got > 44 {
		t.Fatalf("nominal peak = %v, want ≈42", got)
	}
	if eff := efficiency(cfg); eff < 0.67 || eff > 0.73 {
		t.Fatalf("efficiency = %v, want ≈0.70", eff)
	}
}

func TestEfficiencyRisesAtLowerGrades(t *testing.T) {
	// A constant per-request overhead makes slower channels relatively
	// more efficient ("efficiency ... varies with channel speed").
	hi := DefaultConfig()
	lo := DefaultConfig()
	lo.Grade = DDR3_1333
	if efficiency(lo) <= efficiency(hi) {
		t.Fatalf("efficiency at 1333 (%v) should exceed 1867 (%v)", efficiency(lo), efficiency(hi))
	}
}

// efficiency is NominalPeak/RawBandwidth, the paper's "observed
// efficiency of about 70 %" for the DDR3-1867 baseline.
func efficiency(c Config) float64 {
	return float64(c.NominalPeak()) / float64(c.RawBandwidth())
}

func TestConfigValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Channels = 0 },
		func(c *Config) { c.Grade = 0 },
		func(c *Config) { c.Compulsory = 0 },
		func(c *Config) { c.LineSize = 0 },
		func(c *Config) { c.LineSize = 96 },
		func(c *Config) { c.LineSize = 64.5 },
		func(c *Config) { c.RequestOverhead = -1 },
		func(c *Config) { c.BanksPerChannel = 0 },
		func(c *Config) { c.BankCycle = 0 },
		func(c *Config) { c.TurnaroundPenalty = -1 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: want validation error", i)
		}
	}
}

func TestNewSimulatorRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Channels = 0
	if _, err := NewSimulator(cfg); err == nil {
		t.Fatal("want error")
	}
}

func TestUnloadedReadLatency(t *testing.T) {
	sim, err := NewSimulator(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Access(0, 0, Read)
	// First request: no queue; latency ≈ compulsory (+ tiny overhead).
	if got := res.Latency.Nanoseconds(); got < 74 || got > 80 {
		t.Fatalf("unloaded latency = %v ns, want ≈75-78", got)
	}
	if res.QueueDelay.Nanoseconds() > 3 {
		t.Fatalf("unloaded queue = %v ns, want ≈0", res.QueueDelay)
	}
}

func TestSpacedRequestsDoNotQueue(t *testing.T) {
	sim, _ := NewSimulator(DefaultConfig())
	now := units.Duration(0)
	for i := 0; i < 100; i++ {
		res := sim.Access(now, uint64(i)*64*1024, Read)
		if res.QueueDelay.Nanoseconds() > 3 {
			t.Fatalf("request %d queued %v despite 1µs spacing", i, res.QueueDelay)
		}
		now += units.Microsecond
	}
}

func TestBackToBackRequestsQueue(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Channels = 1
	sim, _ := NewSimulator(cfg)
	// Ten simultaneous requests to one channel serialize on the bus.
	var last Result
	for i := 0; i < 10; i++ {
		last = sim.Access(0, uint64(i)*64*uint64(cfg.Channels), Read)
	}
	if last.QueueDelay <= 0 {
		t.Fatal("burst on one channel must produce queue delay")
	}
	service := cfg.Grade.LineTransferTime(cfg.LineSize) + cfg.RequestOverhead
	want := 9 * float64(service)
	if math.Abs(float64(last.QueueDelay)-want) > float64(service) {
		t.Fatalf("10th request queue = %v, want ≈%v", last.QueueDelay, want)
	}
}

func TestBacklogDrainsWithTime(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Channels = 1
	sim, _ := NewSimulator(cfg)
	for i := 0; i < 10; i++ {
		sim.Access(0, uint64(i)*64, Read)
	}
	// Much later, the channel must be idle again.
	res := sim.Access(10*units.Microsecond, 640, Read)
	if res.QueueDelay.Nanoseconds() > 3 {
		t.Fatalf("queue after drain = %v, want ≈0", res.QueueDelay)
	}
}

func TestTurnaroundCounted(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Channels = 1
	sim, _ := NewSimulator(cfg)
	sim.Access(0, 0, Read)
	sim.Access(100, 64, Write)
	sim.Access(200, 128, Read)
	if got := sim.Counters().Turnarounds; got != 2 {
		t.Fatalf("turnarounds = %d, want 2", got)
	}
}

func TestCountersAccumulate(t *testing.T) {
	sim, _ := NewSimulator(DefaultConfig())
	sim.Access(0, 0, Read)
	sim.Access(10, 64, Write)
	c := sim.Counters()
	if c.Reads != 1 || c.Writes != 1 {
		t.Fatalf("reads/writes = %d/%d", c.Reads, c.Writes)
	}
	if c.BytesRead != 64 || c.BytesWritten != 64 {
		t.Fatalf("bytes = %v/%v", c.BytesRead, c.BytesWritten)
	}
	if c.TotalReadLatency <= 0 {
		t.Fatal("read latency must be positive")
	}
}

func TestResetCountersKeepsChannelState(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Channels = 1
	sim, _ := NewSimulator(cfg)
	for i := 0; i < 20; i++ {
		sim.Access(0, uint64(i)*64, Read)
	}
	sim.ResetCounters()
	c := sim.Counters()
	if c.Reads != 0 || c.TotalQueueDelay != 0 {
		t.Fatal("counters must clear")
	}
	// The backlog from before the reset still delays the next request.
	res := sim.Access(0, 64*100, Read)
	if res.QueueDelay <= 0 {
		t.Fatal("channel state must survive a counter reset")
	}
}

func TestBandwidthMeasurement(t *testing.T) {
	sim, _ := NewSimulator(DefaultConfig())
	// 1000 reads spread over 10 µs = 6.4 GB/s.
	for i := 0; i < 1000; i++ {
		sim.Access(units.Duration(i)*10, uint64(i)*64*7, Read)
	}
	got := sim.Counters().Bandwidth().GBps()
	if math.Abs(got-6.4) > 0.5 {
		t.Fatalf("bandwidth = %v GB/s, want ≈6.4", got)
	}
}

func TestZeroTrafficBandwidth(t *testing.T) {
	var c Counters
	if c.Bandwidth() != 0 || c.AvgQueueDelay() != 0 {
		t.Fatal("zero counters must report zero rates")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Counters {
		sim, _ := NewSimulator(DefaultConfig())
		for i := 0; i < 500; i++ {
			op := Read
			if i%3 == 0 {
				op = Write
			}
			sim.Access(units.Duration(i)*3, uint64(i)*64*13, op)
		}
		return sim.Counters()
	}
	a, b := run(), run()
	if a != b {
		t.Fatal("simulator must be deterministic")
	}
}

// TestChannelMaskMatchesModulo: a line's channel is its number modulo
// Channels, whether the simulator masks (a power-of-two count) or
// divides, built by NewSimulator, Reset from another count or CopyFrom.
func TestChannelMaskMatchesModulo(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 6, 8} {
		cfg := DefaultConfig()
		cfg.Channels = n
		built, err := NewSimulator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		other := cfg
		other.Channels = n + 1
		reset, err := NewSimulator(other)
		if err != nil {
			t.Fatal(err)
		}
		if err := reset.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		var copied Simulator
		copied.CopyFrom(built)
		for name, s := range map[string]*Simulator{"NewSimulator": built, "Reset": reset, "CopyFrom": &copied} {
			for _, base := range []uint64{0, 1 << 40, math.MaxUint64 - 1000} {
				for line := base; line < base+1000; line++ {
					if got, want := s.channel(line), int(line%uint64(n)); got != want {
						t.Fatalf("%d channels (%s): line %d on channel %d, want %d", n, name, line, got, want)
					}
				}
			}
		}
	}
}

// Property: queue delay grows (weakly) with injection rate.
func TestQueueGrowsWithLoad(t *testing.T) {
	measure := func(gapNS float64) float64 {
		sim, _ := NewSimulator(DefaultConfig())
		now := 0.0
		for i := 0; i < 3000; i++ {
			sim.Access(units.Duration(now), uint64(i*997%100000)*64, Read)
			now += gapNS
		}
		return float64(sim.Counters().AvgQueueDelay())
	}
	light := measure(10) // ~6.4 GB/s
	heavy := measure(2)  // ~32 GB/s
	if heavy <= light {
		t.Fatalf("queue at heavy load (%v) must exceed light load (%v)", heavy, light)
	}
}

func TestSaturationNearNominalPeak(t *testing.T) {
	cfg := DefaultConfig()
	sim, _ := NewSimulator(cfg)
	// Inject far beyond raw bandwidth; achieved must cap near the
	// nominal (overhead-limited) peak.
	now := 0.0
	for i := 0; i < 50000; i++ {
		sim.Access(units.Duration(now), uint64(i*1013%1000000)*64, Read)
		now += 0.5 // 128 GB/s offered
	}
	got := sim.Counters().Bandwidth().GBps()
	want := cfg.NominalPeak().GBps()
	if got > want*1.05 {
		t.Fatalf("achieved %v exceeds nominal peak %v", got, want)
	}
	if got < want*0.85 {
		t.Fatalf("achieved %v too far below nominal peak %v", got, want)
	}
}

// Property: utilization computed from bytes delivered never exceeds 1 in
// steady state regardless of the offered pattern.
func TestOfferedPatternNeverExceedsPeak(t *testing.T) {
	cfg := DefaultConfig()
	peak := cfg.NominalPeak().GBps()
	f := func(seed uint8, gapTenthsNS uint8) bool {
		gap := 0.1 + float64(gapTenthsNS%40)/10
		sim, _ := NewSimulator(cfg)
		now := 0.0
		x := uint64(seed) + 1
		for i := 0; i < 4000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			sim.Access(units.Duration(now), (x>>16)%(1<<30), Read)
			now += gap
		}
		return sim.Counters().Bandwidth().GBps() <= peak*1.06
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestOpString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Fatal("Op strings")
	}
}
