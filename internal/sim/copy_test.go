package sim

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/memsys"
	"repro/internal/trace"
	"repro/internal/units"
)

// mixFactory is a seeded workload that exercises every piece of state a
// copy must carry. Blocks alternate between two kinds:
//   - dense: eight lines of a sequential scan early in the block, which
//     train the prefetcher, plus (on a coin flip) a random read or write
//     over a footprint far larger than the LLC slice, which misses and
//     dirty-evicts;
//   - tail: a short block of L1 hits on a hot line whose one scan line
//     comes last, so the prefetch it triggers is still in flight when
//     the block ends and is demanded, late, early in the next dense
//     block (readyAt).
//
// Every block also DMAs three lines, so successive transfers start on
// different channels (the I/O cursor), and the traffic loads the
// channels enough for bank conflicts (gap EWMA, bank RNG).
type mixFactory struct{}

type mixGen struct {
	rng              *trace.RNG
	base, scan, sent uint64
}

func (mixFactory) NewGenerator(thread int, seed uint64) trace.Generator {
	return &mixGen{rng: trace.NewRNG(seed), base: uint64(thread+1) << 36}
}

func (g *mixGen) scanLine(b *trace.Block) {
	b.AddRef(g.base+(g.scan%(4<<20/64))*64, false)
	g.scan++
}

func (g *mixGen) hotLines(b *trace.Block, n int) {
	for i := 0; i < n; i++ {
		b.AddRef(g.base+1<<33, false)
	}
}

func (g *mixGen) NextBlock(b *trace.Block) {
	b.Instructions = 400
	b.Chains = 3
	b.IOBytes = 192
	g.sent++
	if g.sent%2 == 0 {
		b.BaseCPI = 0.25
		g.hotLines(b, 15)
		g.scanLine(b)
		return
	}
	b.BaseCPI = 1
	for i := 0; i < 8; i++ {
		g.scanLine(b)
	}
	if r := g.rng.Uint64(); r&(1<<41) != 0 {
		b.AddRef(g.base+1<<32+(r%(64<<20/64))*64, r&(1<<40) != 0)
	}
	g.hotLines(b, 24)
}

// copyTestConfig is a sampled four-thread machine, so the copied run's
// PMU series is compared too.
func copyTestConfig() Config {
	cfg := quickConfig(4)
	cfg.SampleInterval = 5 * units.Microsecond
	return cfg
}

const (
	copyWarm    = 3_000_400 // not a multiple of the I/O lines per channel sweep
	copyRewarm  = 20_000
	copyMeasure = 200_000
)

// retimeRun turns a machine's knobs to the same non-baseline point,
// re-warms briefly and measures.
func retimeRun(t *testing.T, m *Machine) Measurement {
	t.Helper()
	if err := m.Retime(units.GHzOf(2.1), memsys.DDR3_1333); err != nil {
		t.Fatal(err)
	}
	meas, err := m.Run(context.Background(), copyRewarm, copyMeasure)
	if err != nil {
		t.Fatal(err)
	}
	return meas
}

// TestCopyFromMatchesSource is the warm-once gate: a machine copied from
// a warm source, retimed and run, must measure exactly what the source
// itself measures when retimed and run the same way, and both must equal
// a machine warmed from scratch. The copy lands in a machine with a
// different run history (more threads, no prefetcher, another workload),
// as a pooled machine would have. The copy runs first, so a copy that
// aliased any of the source's state would corrupt the source's run.
func TestCopyFromMatchesSource(t *testing.T) {
	ctx := context.Background()
	src, err := New(copyTestConfig(), "mix", mixFactory{})
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Warm(ctx, copyWarm); err != nil {
		t.Fatal(err)
	}

	histCfg := quickConfig(6)
	histCfg.Cache.Prefetch.Enabled = false
	dst, err := New(histCfg, "scan", scanFactory{baseCPI: 1.2, io: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.Run(ctx, 50_000, 100_000); err != nil {
		t.Fatal(err)
	}
	if err := dst.CopyFrom(src); err != nil {
		t.Fatal(err)
	}
	if dst.Retired() != 0 {
		t.Fatalf("copy starts with %d retired instructions, want 0", dst.Retired())
	}
	copied := retimeRun(t, dst)
	fromSource := retimeRun(t, src)

	fresh, err := New(copyTestConfig(), "mix", mixFactory{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Warm(ctx, copyWarm); err != nil {
		t.Fatal(err)
	}
	want := retimeRun(t, fresh)

	if want.Cache.PrefLate == 0 || want.Mem.BankConflicts == 0 || want.Cache.MemWritebacks == 0 || want.IOPI == 0 {
		t.Fatalf("workload too tame to test a copy: %d late prefetches, %d bank conflicts, %d writebacks, IOPI %v",
			want.Cache.PrefLate, want.Mem.BankConflicts, want.Cache.MemWritebacks, want.IOPI)
	}
	if !reflect.DeepEqual(copied, want) {
		t.Errorf("copy diverged from a freshly warmed machine:\ncopy  %+v\nfresh %+v", copied, want)
	}
	if !reflect.DeepEqual(fromSource, want) {
		t.Errorf("source run after being copied diverged from a freshly warmed machine:\nsource %+v\nfresh  %+v", fromSource, want)
	}
	if got := fresh.Retired(); got < copyWarm+copyRewarm+copyMeasure {
		t.Errorf("fresh machine retired %d instructions, want at least %d", got, copyWarm+copyRewarm+copyMeasure)
	}
}

// TestRetimeMatchesConfig: retiming a machine in place is the same as
// building it at the new point, as long as nothing has run yet.
func TestRetimeMatchesConfig(t *testing.T) {
	ctx := context.Background()
	m, err := New(copyTestConfig(), "mix", mixFactory{})
	if err != nil {
		t.Fatal(err)
	}
	got := retimeRun(t, m)

	cfg := copyTestConfig()
	cfg.Core.Freq = units.GHzOf(2.1)
	cfg.Mem.Grade = memsys.DDR3_1333
	built, err := New(cfg, "mix", mixFactory{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := built.Run(ctx, copyRewarm, copyMeasure)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("retimed machine diverged from one built at the point:\nretimed %+v\nbuilt   %+v", got, want)
	}
	if !reflect.DeepEqual(m.cfg, cfg) {
		t.Fatalf("Config after Retime = %+v, want %+v", m.cfg, cfg)
	}
	if err := m.Retime(0, memsys.DDR3_1867); err == nil {
		t.Fatal("Retime accepted a zero frequency")
	}
	if err := m.Retime(units.GHzOf(2.5), 0); err == nil {
		t.Fatal("Retime accepted a zero grade")
	}
}
