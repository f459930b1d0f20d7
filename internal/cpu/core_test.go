package cpu

import (
	"math"
	"testing"

	"repro/internal/cache"
	"repro/internal/memsys"
	"repro/internal/trace"
	"repro/internal/units"
)

type fixedMem struct {
	latency units.Duration
	writes  int
}

func (f *fixedMem) Access(now units.Duration, addr uint64, op memsys.Op) memsys.Result {
	if op == memsys.Write {
		f.writes++
	}
	return memsys.Result{Latency: f.latency, Completion: now + f.latency}
}

// rig is a Core with its own functional hierarchy: RunBlock records a
// trace block and replays the record.
type rig struct {
	*Core
	h   *cache.Hierarchy
	log cache.Log
}

func (r *rig) RunBlock(b *trace.Block) {
	r.log.Reset()
	var rec Block
	Record(&rec, b, r.h, &r.log)
	r.Core.RunBlock(&rec)
}

func newRig(t *testing.T, cfg Config, ccfg cache.Config, mem cache.Memory, io IOSink) *rig {
	t.Helper()
	h, err := cache.New(ccfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(cfg, cache.NewTiming(ccfg), mem, io)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{Core: c, h: h}
}

func newCore(t *testing.T, cfg Config) (*rig, *fixedMem) {
	t.Helper()
	mem := &fixedMem{latency: 80}
	ccfg := cache.Config{
		LineSize: 64,
		Levels: []cache.LevelConfig{
			{Name: "L1", Size: 8 * 64, Assoc: 2, HitLatency: 0},
			{Name: "LLC", Size: 64 * 64, Assoc: 4, HitLatency: 14},
		},
	}
	return newRig(t, cfg, ccfg, mem, nil), mem
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Freq: 0, MSHRs: 10},
		{Freq: units.GHzOf(2.5), MSHRs: 0},
		{Freq: units.GHzOf(2.5), MSHRs: 10, OverlapCM: 1},
		{Freq: units.GHzOf(2.5), MSHRs: 10, OverlapCM: -0.1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestNewValidation(t *testing.T) {
	tm := cache.NewTiming(cache.DefaultConfig())
	if _, err := New(Config{}, tm, &fixedMem{}, nil); err == nil {
		t.Fatal("want error for bad config")
	}
	if _, err := New(DefaultConfig(), nil, &fixedMem{}, nil); err == nil {
		t.Fatal("want error for nil cache timing")
	}
	if _, err := New(DefaultConfig(), tm, nil, nil); err == nil {
		t.Fatal("want error for nil memory")
	}
}

func TestComputeOnlyBlockMatchesBaseCPI(t *testing.T) {
	c, _ := newCore(t, Config{Freq: units.GHzOf(2.5), MSHRs: 10, OverlapCM: 0.15})
	b := &trace.Block{Instructions: 1000, BaseCPI: 1.2}
	c.RunBlock(b)
	ctr := c.Counters()
	if got := cpi(ctr, units.GHzOf(2.5)); math.Abs(got-1.2) > 1e-9 {
		t.Fatalf("CPI = %v, want exactly BaseCPI", got)
	}
	if ctr.StallNS != 0 {
		t.Fatal("no refs, no stalls")
	}
}

func TestSerialMissStall(t *testing.T) {
	// One dependent (chains=1) load miss of 80 ns in a small block: the
	// stall is the full latency minus the overlap allowance.
	cfg := Config{Freq: units.GHzOf(2.5), MSHRs: 10, OverlapCM: 0}
	c, _ := newCore(t, cfg)
	b := &trace.Block{Instructions: 100, BaseCPI: 1, Chains: 1}
	b.AddRef(0x10000, false)
	c.RunBlock(b)
	ctr := c.Counters()
	computeNS := 100.0 * 1 / 2.5
	if math.Abs(ctr.BusyNS-(computeNS+80)) > 1e-9 {
		t.Fatalf("busy = %v, want %v", ctr.BusyNS, computeNS+80)
	}
}

func TestChainsDivideStall(t *testing.T) {
	// Four independent misses with chains=4 stall for one latency, not
	// four (Chou's MLP, Eq. 2).
	cfg := Config{Freq: units.GHzOf(2.5), MSHRs: 10, OverlapCM: 0}
	c, _ := newCore(t, cfg)
	b := &trace.Block{Instructions: 100, BaseCPI: 1, Chains: 4}
	for i := 0; i < 4; i++ {
		b.AddRef(uint64(0x10000+i*4096), false)
	}
	c.RunBlock(b)
	stall := c.Counters().StallNS
	if math.Abs(stall-80) > 1e-9 {
		t.Fatalf("stall = %v, want 80 (4×80/4)", stall)
	}
}

func TestMSHRsBoundChains(t *testing.T) {
	cfg := Config{Freq: units.GHzOf(2.5), MSHRs: 2, OverlapCM: 0}
	c, _ := newCore(t, cfg)
	b := &trace.Block{Instructions: 100, BaseCPI: 1, Chains: 8}
	for i := 0; i < 4; i++ {
		b.AddRef(uint64(0x10000+i*4096), false)
	}
	c.RunBlock(b)
	stall := c.Counters().StallNS
	if math.Abs(stall-160) > 1e-9 {
		t.Fatalf("stall = %v, want 160 (4×80 / min(8 chains, 2 MSHRs))", stall)
	}
}

func TestDeclaredChainsHonoredAboveMissCount(t *testing.T) {
	// One miss in a block that declares chains=4: the miss overlaps with
	// cross-block work, so only a quarter of the latency is exposed.
	cfg := Config{Freq: units.GHzOf(2.5), MSHRs: 10, OverlapCM: 0}
	c, _ := newCore(t, cfg)
	b := &trace.Block{Instructions: 100, BaseCPI: 1, Chains: 4}
	b.AddRef(0x10000, false)
	c.RunBlock(b)
	if got := c.Counters().StallNS; math.Abs(got-20) > 1e-9 {
		t.Fatalf("stall = %v, want 20 (80/4)", got)
	}
}

func TestOverlapHidesComputeUnderMisses(t *testing.T) {
	cfg := Config{Freq: units.GHzOf(2.5), MSHRs: 10, OverlapCM: 0.5}
	c, _ := newCore(t, cfg)
	b := &trace.Block{Instructions: 100, BaseCPI: 1, Chains: 1}
	b.AddRef(0x10000, false)
	c.RunBlock(b)
	computeNS := 100.0 / 2.5 // 40ns
	wantStall := 80 - 0.5*computeNS
	if got := c.Counters().StallNS; math.Abs(got-wantStall) > 1e-9 {
		t.Fatalf("stall = %v, want %v", got, wantStall)
	}
}

func TestOverlapNeverNegative(t *testing.T) {
	cfg := Config{Freq: units.GHzOf(2.5), MSHRs: 10, OverlapCM: 0.9}
	c, _ := newCore(t, cfg)
	b := &trace.Block{Instructions: 10000, BaseCPI: 1, Chains: 8}
	b.AddRef(0x10000, false)
	c.RunBlock(b)
	if got := c.Counters().StallNS; got != 0 {
		t.Fatalf("stall = %v, want clamped to 0", got)
	}
}

func TestStoresDoNotStall(t *testing.T) {
	cfg := Config{Freq: units.GHzOf(2.5), MSHRs: 10, OverlapCM: 0}
	c, _ := newCore(t, cfg)
	b := &trace.Block{Instructions: 100, BaseCPI: 1, Chains: 1}
	b.AddRef(0x10000, true) // store miss
	c.RunBlock(b)
	if got := c.Counters().StallNS; got != 0 {
		t.Fatalf("store miss stall = %v, want 0", got)
	}
}

func TestFrequencyScalingIncreasesCPIOfMemoryBoundBlock(t *testing.T) {
	// The §V.A effect: at a higher clock the same miss costs more cycles,
	// so CPI rises — this is what the whole fitting methodology exploits.
	run := func(ghz float64) float64 {
		c, _ := newCore(t, Config{Freq: units.GHzOf(ghz), MSHRs: 10, OverlapCM: 0})
		for i := 0; i < 50; i++ {
			b := &trace.Block{Instructions: 100, BaseCPI: 1, Chains: 1}
			b.AddRef(uint64(0x100000+i*4096), false)
			c.RunBlock(b)
		}
		return cpi(c.Counters(), units.GHzOf(ghz))
	}
	slow, fast := run(2.1), run(3.1)
	if fast <= slow {
		t.Fatalf("CPI at 3.1GHz (%v) must exceed CPI at 2.1GHz (%v)", fast, slow)
	}
	// And the increase must be roughly MPI×ΔMP(cycles)×1: one miss per
	// 100 instructions at 80ns: Δ = 0.01 × 80 × (3.1−2.1) = 0.8.
	if d := fast - slow; math.Abs(d-0.8) > 0.1 {
		t.Fatalf("CPI delta = %v, want ≈0.8", d)
	}
}

func TestIdleAccountingDoesNotDiluteCPI(t *testing.T) {
	// §V.J: halted time must not dilute CPI, only utilization.
	cfg := Config{Freq: units.GHzOf(2.5), MSHRs: 10}
	c, _ := newCore(t, cfg)
	b := &trace.Block{Instructions: 1000, BaseCPI: 1, IdleNS: 400}
	c.RunBlock(b)
	ctr := c.Counters()
	if got := cpi(ctr, cfg.Freq); math.Abs(got-1) > 1e-9 {
		t.Fatalf("CPI = %v, want 1 (idle excluded)", got)
	}
	if got := ctr.BusyNS / (ctr.BusyNS + ctr.IdleNS); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("utilization = %v, want 0.5 (400ns busy, 400ns idle)", got)
	}
}

type countingSink struct{ bytes float64 }

func (s *countingSink) DMA(now units.Duration, b float64) { s.bytes += b }

func TestIOAccounting(t *testing.T) {
	sink := &countingSink{}
	c := newRig(t, DefaultConfig(), cache.DefaultConfig(), &fixedMem{latency: 80}, sink)
	b := &trace.Block{Instructions: 1000, BaseCPI: 1, IOBytes: 2 * IOEventSize}
	c.RunBlock(b)
	ctr := c.Counters()
	if sink.bytes != 2*IOEventSize {
		t.Fatalf("sink bytes = %v", sink.bytes)
	}
	if ctr.IOEvents != 2 {
		t.Fatalf("IO events = %d, want 2", ctr.IOEvents)
	}
}

func TestSetFrequency(t *testing.T) {
	c, _ := newCore(t, DefaultConfig())
	c.SetFrequency(units.GHzOf(2.1))
	if c.cfg.Freq != units.GHzOf(2.1) {
		t.Fatal("SetFrequency did not apply")
	}
}

func TestResetCounters(t *testing.T) {
	c, _ := newCore(t, DefaultConfig())
	b := &trace.Block{Instructions: 100, BaseCPI: 1}
	b.AddRef(0x1000, false)
	c.RunBlock(b)
	c.ResetCounters()
	ctr := c.Counters()
	if ctr.Instructions != 0 || ctr.BusyNS != 0 {
		t.Fatal("counters must clear")
	}
	var cc cache.Counters
	c.Timing().CountersInto(&cc)
	if cc.MemDemandReads != 0 {
		t.Fatal("cache counters must clear too")
	}
	if c.Now() == 0 {
		t.Fatal("simulated time must NOT reset (the machine keeps running)")
	}
}

// cpi is the measured cycles per instruction at frequency f.
func cpi(c Counters, f units.Hertz) float64 {
	return c.Cycles(f) / float64(c.Instructions)
}
