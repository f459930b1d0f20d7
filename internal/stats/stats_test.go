package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
}

func TestMeanErrEmpty(t *testing.T) {
	if _, err := MeanErr(nil); err != ErrEmpty {
		t.Fatalf("MeanErr(nil) err = %v, want ErrEmpty", err)
	}
}

// The extremes of a sample are its 0th and 100th percentiles.
func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	got, err := Percentiles(xs, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != -1 || got[1] != 7 {
		t.Fatalf("min/max = %v, want [-1 7]", got)
	}
	if _, err := Percentiles(nil, 0, 100); err != ErrEmpty {
		t.Fatalf("empty sample: err = %v, want ErrEmpty", err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // unsorted on purpose
	cases := []struct {
		p, want float64
	}{
		{0, 1}, {100, 4}, {50, 2.5}, {25, 1.75},
	}
	for _, c := range cases {
		got, err := Percentile(xs, c.p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPercentileErrors(t *testing.T) {
	if _, err := Percentile(nil, 50); err != ErrEmpty {
		t.Fatalf("err = %v, want ErrEmpty", err)
	}
	if _, err := Percentile([]float64{1}, -1); err == nil {
		t.Fatal("want error for p<0")
	}
	if _, err := Percentile([]float64{1}, 101); err == nil {
		t.Fatal("want error for p>100")
	}
}

func TestPercentileSingle(t *testing.T) {
	got, err := Percentile([]float64{7}, 90)
	if err != nil || got != 7 {
		t.Fatalf("Percentile single = %v, %v", got, err)
	}
}

// refPercentile is the copy-sort-interpolate oracle Percentiles must
// reproduce bit for bit, one independent sort per call.
func refPercentile(xs []float64, p float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	if len(ys) == 1 {
		return ys[0]
	}
	rank := p / 100 * float64(len(ys)-1)
	lo, hi := int(math.Floor(rank)), int(math.Ceil(rank))
	if lo == hi {
		return ys[lo]
	}
	frac := rank - float64(lo)
	return ys[lo]*(1-frac) + ys[hi]*frac
}

// TestPercentilesMatchesPercentile: one sort for many ps gives exactly
// what a Percentile call per p gives, on n = 1 and on random samples.
func TestPercentilesMatchesPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ps := []float64{0, 1, 25, 50, 95, 99, 99.9, 100}
	for _, n := range []int{1, 2, 3, 10, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.ExpFloat64() * 1e7
		}
		got, err := Percentiles(xs, ps...)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range ps {
			one, err := Percentile(xs, p)
			if err != nil {
				t.Fatal(err)
			}
			if want := refPercentile(xs, p); got[i] != want || one != want {
				t.Errorf("n=%d p=%v: Percentiles %v, Percentile %v, oracle %v", n, p, got[i], one, want)
			}
		}
	}
	if _, err := Percentiles(nil, 50); err != ErrEmpty {
		t.Errorf("empty: err = %v, want ErrEmpty", err)
	}
	for _, p := range []float64{-1, 101} {
		if got, err := Percentiles([]float64{1, 2}, 50, p); err == nil {
			t.Errorf("p=%v: got %v, want out-of-range error", p, got)
		}
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Percentile(xs, 50); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestRelError(t *testing.T) {
	if got := RelError(1.02, 1.0); math.Abs(got-0.02) > 1e-12 {
		t.Fatalf("RelError = %v, want 0.02", got)
	}
	if got := RelError(0, 0); got != 0 {
		t.Fatalf("RelError(0,0) = %v, want 0", got)
	}
	if got := RelError(1, 0); !math.IsInf(got, 1) {
		t.Fatalf("RelError(1,0) = %v, want +Inf", got)
	}
}

func TestPearson(t *testing.T) {
	// Perfect positive and negative linear relationships.
	if r, err := Pearson([]float64{1, 2, 3, 4}, []float64{2, 4, 6, 8}); err != nil || math.Abs(r-1) > 1e-12 {
		t.Fatalf("Pearson = %v, %v, want 1", r, err)
	}
	if r, err := Pearson([]float64{1, 2, 3}, []float64{3, 2, 1}); err != nil || math.Abs(r+1) > 1e-12 {
		t.Fatalf("Pearson = %v, %v, want -1", r, err)
	}
	// Known mid-strength value: r of (1,2,3) vs (1,3,2) is 0.5.
	if r, err := Pearson([]float64{1, 2, 3}, []float64{1, 3, 2}); err != nil || math.Abs(r-0.5) > 1e-12 {
		t.Fatalf("Pearson = %v, %v, want 0.5", r, err)
	}
	if _, err := Pearson([]float64{1}, []float64{2}); err == nil {
		t.Fatal("Pearson of one pair should error")
	}
	if _, err := Pearson([]float64{1, 2}, []float64{1, 2, 3}); err == nil {
		t.Fatal("Pearson of mismatched lengths should error")
	}
	if _, err := Pearson([]float64{5, 5, 5}, []float64{1, 2, 3}); err == nil {
		t.Fatal("Pearson with zero variance should error")
	}
}

func TestMAPE(t *testing.T) {
	got, err := MAPE([]float64{100, 200}, []float64{110, 180})
	if err != nil || math.Abs(got-10) > 1e-12 {
		t.Fatalf("MAPE = %v, %v, want 10", got, err)
	}
	// Zero observations are skipped, not divided by.
	got, err = MAPE([]float64{0, 100}, []float64{5, 120})
	if err != nil || math.Abs(got-20) > 1e-12 {
		t.Fatalf("MAPE with zero obs = %v, %v, want 20", got, err)
	}
	if _, err := MAPE([]float64{0}, []float64{1}); err == nil {
		t.Fatal("MAPE with no usable pairs should error")
	}
	if _, err := MAPE(nil, nil); err == nil {
		t.Fatal("MAPE of empty input should error")
	}
}
