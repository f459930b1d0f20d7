package units

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestGHzOf(t *testing.T) {
	if got := GHzOf(2.5); got != 2.5*GHz {
		t.Fatalf("GHzOf(2.5) = %v, want %v", got, 2.5*GHz)
	}
	if got := GHzOf(2.5).GHz(); got != 2.5 {
		t.Fatalf("round trip GHz = %v, want 2.5", got)
	}
}

// One cycle's period, through Cycles.Duration.
func TestHertzPeriod(t *testing.T) {
	if got := Cycles(1).Duration(GHzOf(1)); !almostEqual(float64(got), 1.0, 1e-12) {
		t.Fatalf("1GHz period = %v ns, want 1", got)
	}
	if got := Cycles(1).Duration(GHzOf(2)); !almostEqual(float64(got), 0.5, 1e-12) {
		t.Fatalf("2GHz period = %v ns, want 0.5", got)
	}
	if got := Cycles(1).Duration(0); got != 0 {
		t.Fatalf("zero frequency period = %v, want 0", got)
	}
}

func TestDurationCyclesRoundTrip(t *testing.T) {
	f := GHzOf(2.5)
	d := 100 * Nanosecond
	cy := d.Cycles(f)
	if !almostEqual(float64(cy), 250, 1e-9) {
		t.Fatalf("100ns at 2.5GHz = %v cycles, want 250", cy)
	}
	back := cy.Duration(f)
	if !almostEqual(float64(back), float64(d), 1e-9) {
		t.Fatalf("round trip = %v, want %v", back, d)
	}
}

func TestCyclesDurationZeroFreq(t *testing.T) {
	if got := Cycles(100).Duration(0); got != 0 {
		t.Fatalf("cycles at 0Hz = %v, want 0", got)
	}
}

// Property: Duration→Cycles→Duration is the identity for positive
// frequencies (up to floating-point error).
func TestDurationCyclesRoundTripProperty(t *testing.T) {
	f := func(ns float64, ghz float64) bool {
		ns = math.Abs(ns)
		ghz = 0.5 + math.Mod(math.Abs(ghz), 4) // 0.5..4.5 GHz
		if math.IsNaN(ns) || math.IsInf(ns, 0) || ns > 1e15 {
			return true // outside the domain of interest
		}
		d := Duration(ns)
		back := d.Cycles(GHzOf(ghz)).Duration(GHzOf(ghz))
		return almostEqual(float64(back), float64(d), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDurationSeconds(t *testing.T) {
	if got := Second.Seconds(); got != 1 {
		t.Fatalf("Second.Seconds() = %v", got)
	}
	if got := (500 * Millisecond).Seconds(); got != 0.5 {
		t.Fatalf("500ms = %v s", got)
	}
}

func TestStringFormats(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{GHzOf(2.5).String(), "2.5GHz"},
		{(1200 * MHz).String(), "1.2GHz"},
		{(10 * KHz).String(), "10kHz"},
		{Hertz(42).String(), "42Hz"},
		{(75 * Nanosecond).String(), "75ns"},
		{(1500 * Nanosecond).String(), "1.5us"},
		{(2 * Millisecond).String(), "2ms"},
		{(3 * Second).String(), "3s"},
		{Cycles(187.5).String(), "187.5cy"},
		{GBpsOf(42).String(), "42GB/s"},
		{(500 * MBps).String(), "500MB/s"},
		{BytesPerSecond(10).String(), "10B/s"},
		{(2 * GiB).String(), "2GiB"},
		{(3 * MiB).String(), "3MiB"},
		{(4 * KiB).String(), "4KiB"},
		{Bytes(64).String(), "64B"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("String() = %q, want %q", c.got, c.want)
		}
	}
}

func TestGBpsRoundTrip(t *testing.T) {
	if got := GBpsOf(42).GBps(); got != 42 {
		t.Fatalf("GBps round trip = %v, want 42", got)
	}
}

func TestBandwidthArithmeticMatchesPaperBaseline(t *testing.T) {
	// 4 channels of DDR3-1867 at 70% efficiency ≈ 42 GB/s (§VI.C.2).
	raw := BytesPerSecond(4 * 1867e6 * 8)
	eff := raw * BytesPerSecond(0.70)
	if eff.GBps() < 41 || eff.GBps() > 43 {
		t.Fatalf("baseline effective bandwidth = %.1f GB/s, want ≈42", eff.GBps())
	}
}
