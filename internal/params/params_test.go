package params

import (
	"math"
	"testing"

	"repro/internal/units"
)

func TestTable2Verbatim(t *testing.T) {
	// The printed Table 2 cells.
	want := map[string][4]float64{
		"columnstore": {0.89, 0.20, 5.6, 0.32},
		"spark":       {0.90, 0.25, 6.0, 0.64},
		"proximity":   {0.93, 0.03, 0.5, 0.47},
	}
	for name, w := range want {
		got, ok := ByWorkload(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		if got.CPICache != w[0] || got.BF != w[1] || got.MPKI != w[2] || got.WBR != w[3] {
			t.Fatalf("%s = %+v, want %v", name, got, w)
		}
		if !got.Verbatim {
			t.Fatalf("%s must be marked verbatim", name)
		}
	}
}

func TestNITSWBRReconstruction(t *testing.T) {
	// (0.32 + x + 0.64)/3 = 0.92 ⇒ x = 1.80: the Table 6 mean pins the
	// corrupted NITS cell (DESIGN.md §2).
	nits, ok := ByWorkload("nits")
	if !ok {
		t.Fatal("missing nits")
	}
	if nits.WBR != 1.80 {
		t.Fatalf("NITS WBR = %v, want 1.80", nits.WBR)
	}
	if nits.Verbatim {
		t.Fatal("the reconstructed cell must not claim to be verbatim")
	}
	mean := (0.32 + nits.WBR + 0.64) / 3
	if math.Abs(mean-0.92) > 1e-9 {
		t.Fatalf("class-mean check = %v, want 0.92", mean)
	}
}

func TestReconstructedTablesMatchTable6Means(t *testing.T) {
	check := func(name string, rows []Target, want Target, tol float64) {
		var c, b, m, w float64
		for _, r := range rows {
			c += r.CPICache
			b += r.BF
			m += r.MPKI
			w += r.WBR
		}
		n := float64(len(rows))
		if math.Abs(c/n-want.CPICache) > tol || math.Abs(b/n-want.BF) > tol ||
			math.Abs(m/n-want.MPKI) > 0.2 || math.Abs(w/n-want.WBR) > tol {
			t.Fatalf("%s means (%.3f/%.3f/%.2f/%.3f) do not match Table 6 (%v)",
				name, c/n, b/n, m/n, w/n, want)
		}
	}
	check("Table4", Table4, Table6[0], 0.02)
	check("Table5", Table5, Table6[2], 0.02)
}

func TestByWorkloadUnknown(t *testing.T) {
	if _, ok := ByWorkload("nope"); ok {
		t.Fatal("unknown workload must not resolve")
	}
}

func TestBaselineArithmetic(t *testing.T) {
	b := Baseline()
	if got := b.EffectiveBandwidth().GBps(); math.Abs(got-41.8) > 0.5 {
		t.Fatalf("effective = %v, want ≈41.8 (paper: ~42 GB/s)", got)
	}
	if got := (b.EffectiveBandwidth() / units.BytesPerSecond(b.Cores)).GBps(); math.Abs(got-5.23) > 0.1 {
		t.Fatalf("per-core = %v, want ≈5.25", got)
	}
	if b.Cores*b.ThreadsPerCore != 16 {
		t.Fatal("baseline must expose 16 hardware threads")
	}
}

func TestFig1Trend(t *testing.T) {
	trend := Fig1(5)
	if len(trend) != 5 {
		t.Fatalf("years = %d", len(trend))
	}
	if trend[0].CoreGrowth != 1 || trend[0].DRAMGrowth != 1 {
		t.Fatal("trend must start normalized")
	}
	for i := 1; i < len(trend); i++ {
		// The gap widens every year (the paper's motivation).
		gapPrev := trend[i-1].CoreGrowth / trend[i-1].DRAMGrowth
		gap := trend[i].CoreGrowth / trend[i].DRAMGrowth
		if gap <= gapPrev {
			t.Fatalf("gap must widen: %v then %v", gapPrev, gap)
		}
	}
	if trend[1].Year != 2013 {
		t.Fatalf("years must advance: %d", trend[1].Year)
	}
}
