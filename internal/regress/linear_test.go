package regress

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFitExactLine(t *testing.T) {
	// The paper's use case: intercept = CPI_cache, slope = BF.
	xs := []float64{1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 0.89 + 0.20*x
	}
	l, err := Fit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l.Intercept-0.89) > 1e-12 || math.Abs(l.Slope-0.20) > 1e-12 {
		t.Fatalf("fit = (%v, %v), want (0.89, 0.20)", l.Intercept, l.Slope)
	}
	if l.R2 != 1 {
		t.Fatalf("R2 = %v, want 1", l.R2)
	}
	if l.N != 4 {
		t.Fatalf("N = %d, want 4", l.N)
	}
}

func TestFitEval(t *testing.T) {
	l := Line{Intercept: 1, Slope: 2}
	if got := l.Eval(3); got != 7 {
		t.Fatalf("Eval(3) = %v, want 7", got)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit([]float64{1}, []float64{1}); err != ErrInsufficientData {
		t.Fatalf("single point err = %v", err)
	}
	if _, err := Fit([]float64{1, 2}, []float64{1}); err != ErrInsufficientData {
		t.Fatalf("mismatched err = %v", err)
	}
	if _, err := Fit([]float64{2, 2, 2}, []float64{1, 2, 3}); err != ErrInsufficientData {
		t.Fatalf("degenerate x err = %v", err)
	}
}

func TestFitConstantY(t *testing.T) {
	l, err := Fit([]float64{1, 2, 3}, []float64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if l.Slope != 0 || l.Intercept != 5 {
		t.Fatalf("fit = (%v, %v), want (5, 0)", l.Intercept, l.Slope)
	}
	if l.R2 != 1 {
		t.Fatalf("R2 for exact constant fit = %v, want 1", l.R2)
	}
}

func TestFitNoisyR2(t *testing.T) {
	// Deterministic "noise": alternating residuals shrink R2 below 1 but
	// leave the slope estimate near truth.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		noise := 0.05
		if i%2 == 0 {
			noise = -0.05
		}
		ys[i] = 1 + 0.5*x + noise
	}
	l, err := Fit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if l.R2 >= 1 || l.R2 < 0.95 {
		t.Fatalf("R2 = %v, want in [0.95, 1)", l.R2)
	}
	if math.Abs(l.Slope-0.5) > 0.02 {
		t.Fatalf("slope = %v, want ≈0.5", l.Slope)
	}
}

// Property: Fit recovers arbitrary (intercept, slope) exactly from exact
// data — the regression at the heart of the §V.A methodology.
func TestFitRecoveryProperty(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		a = math.Mod(a, 100)
		b = math.Mod(b, 100)
		xs := []float64{0.5, 1.5, 2.5, 4, 8}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			ys[i] = a + b*x
		}
		l, err := Fit(xs, ys)
		if err != nil {
			return false
		}
		tol := 1e-8 * math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
		return math.Abs(l.Intercept-a) <= tol && math.Abs(l.Slope-b) <= tol
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFitThroughIntercept(t *testing.T) {
	xs := []float64{1, 2, 4}
	ys := []float64{1.2, 1.4, 1.8} // exactly 1 + 0.2x
	l, err := FitThroughIntercept(xs, ys, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l.Slope-0.2) > 1e-12 {
		t.Fatalf("slope = %v, want 0.2", l.Slope)
	}
	if math.Abs(l.R2-1) > 1e-12 {
		t.Fatalf("R2 = %v, want 1", l.R2)
	}
}

func TestFitThroughInterceptErrors(t *testing.T) {
	if _, err := FitThroughIntercept(nil, nil, 1); err != ErrInsufficientData {
		t.Fatalf("err = %v", err)
	}
	if _, err := FitThroughIntercept([]float64{0, 0}, []float64{1, 1}, 1); err != ErrInsufficientData {
		t.Fatalf("zero-x err = %v", err)
	}
}

func TestResiduals(t *testing.T) {
	l := Line{Intercept: 1, Slope: 1}
	rs := Residuals(l, []float64{0, 1}, []float64{1.5, 1.5})
	if rs[0] != 0.5 || rs[1] != -0.5 {
		t.Fatalf("residuals = %v", rs)
	}
}

func TestStandardErrors(t *testing.T) {
	// Exact data: zero residuals, zero standard errors.
	xs := []float64{1, 2, 3, 4}
	ys := []float64{1.2, 1.4, 1.6, 1.8}
	l, err := Fit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if l.SESlope > 1e-12 || l.SEIntercept > 1e-12 {
		t.Fatalf("exact fit must have ≈zero SEs: %v/%v", l.SEIntercept, l.SESlope)
	}
	// Noisy data: hand-checked OLS standard errors.
	ysn := []float64{1.25, 1.35, 1.65, 1.75}
	ln, err := Fit(xs, ysn)
	if err != nil {
		t.Fatal(err)
	}
	if ln.SESlope <= 0 || ln.SEIntercept <= 0 {
		t.Fatal("noisy fit must report positive SEs")
	}
	// s² = SS_res/2; Sxx = 5 → se(b) = sqrt(s²/5).
	var ssRes float64
	for i, x := range xs {
		r := ysn[i] - ln.Eval(x)
		ssRes += r * r
	}
	want := math.Sqrt(ssRes / 2 / 5)
	if math.Abs(ln.SESlope-want) > 1e-12 {
		t.Fatalf("SESlope = %v, want %v", ln.SESlope, want)
	}
}

func TestStandardErrorsNeedThreePoints(t *testing.T) {
	l, err := Fit([]float64{1, 2}, []float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if l.SESlope != 0 || l.SEIntercept != 0 {
		t.Fatal("n=2 has no residual degrees of freedom; SEs must be 0")
	}
}

// Fit variants the paper describes but no fit path uses, kept with their
// tests.

// FitThroughIntercept performs least squares for y = c + s*x with the
// intercept c held fixed, returning the slope and R². The paper's §V.A
// alternative when CPI_cache is known from a separate core-bound run.
func FitThroughIntercept(xs, ys []float64, intercept float64) (Line, error) {
	if len(xs) != len(ys) || len(xs) < 1 {
		return Line{}, ErrInsufficientData
	}
	var sxx, sxy float64
	for i := range xs {
		sxx += xs[i] * xs[i]
		sxy += xs[i] * (ys[i] - intercept)
	}
	if sxx == 0 {
		return Line{}, ErrInsufficientData
	}
	l := Line{Intercept: intercept, Slope: sxy / sxx, N: len(xs)}

	var my float64
	for _, y := range ys {
		my += y
	}
	my /= float64(len(ys))
	var ssRes, ssTot float64
	for i := range xs {
		r := ys[i] - l.Eval(xs[i])
		ssRes += r * r
		d := ys[i] - my
		ssTot += d * d
	}
	if ssTot == 0 {
		if ssRes == 0 {
			l.R2 = 1
		}
		return l, nil
	}
	l.R2 = 1 - ssRes/ssTot
	return l, nil
}

// Residuals returns ys[i] - line.Eval(xs[i]).
func Residuals(l Line, xs, ys []float64) []float64 {
	rs := make([]float64, len(xs))
	for i := range xs {
		rs[i] = ys[i] - l.Eval(xs[i])
	}
	return rs
}
