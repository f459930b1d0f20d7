package experiments

// This file's zz_ prefix is load-bearing: `go test` registers tests in
// filename order, so the calibration gate runs last in the package. In
// a full `go test ./...` the other packages' test binaries run
// concurrently with this one and their CPU contention inflates the
// sub-millisecond latencies the gate measures; by the time the package
// reaches its final test (behind the ~2-minute golden-manifest drift
// replay) those siblings have drained and the machine is quiet again.

import (
	"math"
	"testing"

	"repro/internal/workgen"
)

// TestLoadgenCalibrationGates runs the full observe→predict→calibrate
// loop against an in-process daemon and holds the prediction to the
// acceptance thresholds: throughput and mean-latency MAPE ≤ 15%.
func TestLoadgenCalibrationGates(t *testing.T) {
	if testing.Short() {
		t.Skip("drives several seconds of real traffic")
	}
	rep, err := runLoadgenCalibration(bg)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := workgen.Compile(loadgenWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if rep.TraceHash != spec.Trace().HashHex() {
		t.Fatalf("report trace hash %s does not match the spec's %s",
			rep.TraceHash, spec.Trace().HashHex())
	}
	if n := len(spec.Trace().Arrivals); rep.Arrivals != n {
		t.Fatalf("report counts %d arrivals, the trace its hash names has %d", rep.Arrivals, n)
	}
	t.Logf("MAPE: throughput %.2f%%, mean latency %.2f%%, overall %.2f%%; pearson %.3f",
		rep.ThroughputMAPE, rep.MeanLatencyMAPE, rep.OverallMAPE, rep.PearsonR)
	if math.IsNaN(rep.ThroughputMAPE) || rep.ThroughputMAPE > 15 {
		t.Errorf("throughput MAPE = %.2f%%, gate is 15%%", rep.ThroughputMAPE)
	}
	// The latency gate is a wall-clock accuracy claim; the race
	// detector's order-of-magnitude slowdown and serialized scheduling
	// distort every measured latency, so (like the drift test) only the
	// normal build asserts it.
	if raceEnabled {
		t.Logf("race detector enabled: mean-latency gate reported, not asserted")
	} else if math.IsNaN(rep.MeanLatencyMAPE) || rep.MeanLatencyMAPE > 15 {
		t.Errorf("mean-latency MAPE = %.2f%%, gate is 15%%", rep.MeanLatencyMAPE)
	}
	if math.IsNaN(rep.OverallMAPE) || math.IsInf(rep.OverallMAPE, 0) {
		t.Errorf("overall MAPE = %v, want finite", rep.OverallMAPE)
	}
	// No shedding this far from saturation.
	if rep.Observed[0].ShedRate != 0 {
		t.Errorf("observed shed rate = %g on an unsaturated run", rep.Observed[0].ShedRate)
	}
	// Six distinct scenarios priced (two per reference client).
	if len(rep.Scenarios) != 6 {
		t.Errorf("scenario points = %d, want 6", len(rep.Scenarios))
	}
}
