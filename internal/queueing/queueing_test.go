package queueing

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestMM1Shape(t *testing.T) {
	c := MM1{Service: 6 * units.Nanosecond, ULimit: 0.95}
	if got := c.Delay(0); got != 0 {
		t.Fatalf("delay at 0 util = %v, want 0", got)
	}
	// At u=0.5, delay = S·u/(1−u) = S.
	if got := c.Delay(0.5); math.Abs(float64(got)-6) > 1e-9 {
		t.Fatalf("delay at 0.5 = %v, want 6ns", got)
	}
	if got := c.Delay(-1); got != 0 {
		t.Fatalf("negative util clamps to 0, got %v", got)
	}
	// Above the limit the delay clamps to the stable maximum.
	if c.Delay(0.99) != c.MaxStableDelay() {
		t.Fatal("delay above ULimit must clamp to MaxStableDelay")
	}
	want := 6.0 * 0.95 / 0.05
	if got := float64(c.MaxStableDelay()); math.Abs(got-want) > 1e-9 {
		t.Fatalf("MaxStableDelay = %v, want %v", got, want)
	}
}

func TestMM1DefaultLimit(t *testing.T) {
	c := MM1{Service: 1}
	if c.limit() != 0.95 {
		t.Fatalf("default limit = %v, want 0.95", c.limit())
	}
	c2 := MM1{Service: 1, ULimit: 1.5}
	if c2.limit() != 0.95 {
		t.Fatalf("out-of-range limit = %v, want 0.95", c2.limit())
	}
}

// Property: MM1 delay is nondecreasing in utilization — the physical
// invariant behind Fig. 7.
func TestMM1Monotone(t *testing.T) {
	c := MM1{Service: 6 * units.Nanosecond, ULimit: 0.95}
	f := func(a, b float64) bool {
		a, b = math.Abs(math.Mod(a, 1)), math.Abs(math.Mod(b, 1))
		if a > b {
			a, b = b, a
		}
		return c.Delay(a) <= c.Delay(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeasuredInterpolation(t *testing.T) {
	m, err := NewMeasured(
		[]float64{0.1, 0.5, 0.9},
		[]units.Duration{0, 10, 50},
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Delay(0.05); got != 0 {
		t.Fatalf("below range = %v, want clamp to first", got)
	}
	if got := m.Delay(0.95); got != 50 {
		t.Fatalf("above range = %v, want clamp to last", got)
	}
	if got := m.Delay(0.3); math.Abs(float64(got)-5) > 1e-9 {
		t.Fatalf("interp at 0.3 = %v, want 5", got)
	}
	if got := m.Delay(0.7); math.Abs(float64(got)-30) > 1e-9 {
		t.Fatalf("interp at 0.7 = %v, want 30", got)
	}
	if got := m.MaxStableDelay(); got != 50 {
		t.Fatalf("MaxStableDelay = %v, want 50", got)
	}
	if got := m.ULimit(); got != 0.9 {
		t.Fatalf("ULimit = %v, want 0.9", got)
	}
}

func TestMeasuredSortsAndDedups(t *testing.T) {
	// Unsorted input with a duplicate utilization that must average.
	m, err := NewMeasured(
		[]float64{0.8, 0.2, 0.8},
		[]units.Duration{40, 2, 20},
	)
	if err != nil {
		t.Fatal(err)
	}
	us, ds := m.us, m.delays
	if len(us) != 2 || us[0] != 0.2 || us[1] != 0.8 {
		t.Fatalf("us = %v", us)
	}
	if ds[1] != 30 {
		t.Fatalf("duplicate utilizations must average: got %v, want 30", ds[1])
	}
}

func TestMeasuredErrors(t *testing.T) {
	if _, err := NewMeasured(nil, nil); err == nil {
		t.Fatal("want error for empty")
	}
	if _, err := NewMeasured([]float64{0.5}, []units.Duration{1}); err == nil {
		t.Fatal("want error for single sample")
	}
	if _, err := NewMeasured([]float64{0.5, 1.5}, []units.Duration{1, 2}); err == nil {
		t.Fatal("want error for utilization > 1")
	}
	if _, err := NewMeasured([]float64{0.5, 0.5}, []units.Duration{1, 2}); err == nil {
		t.Fatal("want error when dedup leaves one point")
	}
}

func TestCompositeAverages(t *testing.T) {
	a := MM1{Service: 4 * units.Nanosecond, ULimit: 0.95}
	b := MM1{Service: 8 * units.Nanosecond, ULimit: 0.95}
	c, err := NewComposite(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// At u=0.5 the members give 4 and 8 → composite 6.
	if got := float64(c.Delay(0.5)); math.Abs(got-6) > 1e-9 {
		t.Fatalf("composite delay = %v, want 6", got)
	}
	wantMax := (4.0*19 + 8.0*19) / 2
	if got := float64(c.MaxStableDelay()); math.Abs(got-wantMax) > 1e-6 {
		t.Fatalf("composite max = %v, want %v", got, wantMax)
	}
}

func TestCompositeEmpty(t *testing.T) {
	if _, err := NewComposite(); err == nil {
		t.Fatal("want error for empty composite")
	}
}

func TestSystemUtilization(t *testing.T) {
	sys := System{Compulsory: 75, PeakBW: 40e9, Curve: MM1{Service: 6}}
	if got := sys.Utilization(20e9); got != 0.5 {
		t.Fatalf("util = %v, want 0.5", got)
	}
	if got := sys.Utilization(80e9); got != 1 {
		t.Fatalf("util clamps to 1, got %v", got)
	}
	if got := sys.Utilization(-1); got != 0 {
		t.Fatalf("negative demand clamps to 0, got %v", got)
	}
	zero := System{Compulsory: 75, PeakBW: 0, Curve: MM1{Service: 6}}
	if got := zero.Utilization(1); got != 1 {
		t.Fatalf("zero peak must read as saturated, got %v", got)
	}
}

func TestMD1HalfOfMM1(t *testing.T) {
	mm := MM1{Service: 6 * units.Nanosecond, ULimit: 0.95}
	md := MD1{Service: 6 * units.Nanosecond, ULimit: 0.95}
	for _, u := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		if got, want := float64(md.Delay(u)), float64(mm.Delay(u))/2; math.Abs(got-want) > 1e-9 {
			t.Fatalf("M/D/1 at %v = %v, want half of M/M/1 (%v)", u, got, want)
		}
	}
	if md.Delay(0.99) != md.MaxStableDelay() {
		t.Fatal("M/D/1 must clamp at its limit")
	}
	if (MD1{Service: 1}).limit() != 0.95 {
		t.Fatal("default limit")
	}
}
