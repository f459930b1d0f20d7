package model

import (
	"context"
	"fmt"

	"repro/internal/params"
	"repro/internal/queueing"
	"repro/internal/units"
)

// Platform is the supply side of the model: the machine a workload class
// is evaluated on. It corresponds to the paper's §VI.C baseline and its
// variations (channel count, channel speed, efficiency, compulsory
// latency).
type Platform struct {
	Name string
	// Threads is the number of hardware threads generating demand (the
	// paper scales Eq. 4 "with total core count (or hardware thread count
	// in the case of multithreaded processors)").
	Threads int
	// Cores is the physical core count, used only for per-core
	// normalization of bandwidth (the x axes of Figs. 8/9).
	Cores     int
	CoreSpeed units.Hertz
	LineSize  units.Bytes
	// Compulsory is the unloaded memory latency.
	Compulsory units.Duration
	// PeakBW is the deliverable (post-efficiency) memory bandwidth.
	PeakBW units.BytesPerSecond
	// Queue maps bandwidth utilization to queuing delay.
	Queue queueing.Curve
}

// Validate reports configuration errors, including NaN or infinite
// fields. Failures wrap ErrInvalidPlatform for errors.Is
// classification.
func (pl Platform) Validate() error {
	switch {
	case !finite(float64(pl.CoreSpeed), float64(pl.LineSize), float64(pl.Compulsory), float64(pl.PeakBW)):
		return fmt.Errorf("%w: Platform fields must be finite", ErrInvalidPlatform)
	case pl.Threads <= 0:
		return fmt.Errorf("%w: Platform.Threads must be positive", ErrInvalidPlatform)
	case pl.Cores <= 0:
		return fmt.Errorf("%w: Platform.Cores must be positive", ErrInvalidPlatform)
	case pl.CoreSpeed <= 0:
		return fmt.Errorf("%w: Platform.CoreSpeed must be positive", ErrInvalidPlatform)
	case pl.LineSize <= 0:
		return fmt.Errorf("%w: Platform.LineSize must be positive", ErrInvalidPlatform)
	case pl.Compulsory <= 0:
		return fmt.Errorf("%w: Platform.Compulsory must be positive", ErrInvalidPlatform)
	case pl.PeakBW <= 0:
		return fmt.Errorf("%w: Platform.PeakBW must be positive", ErrInvalidPlatform)
	case pl.Queue == nil:
		return fmt.Errorf("%w: Platform.Queue must be set", ErrInvalidPlatform)
	}
	return nil
}

// PerCoreBW returns deliverable bandwidth per physical core (Fig. 8's
// normalization).
func (pl Platform) PerCoreBW() units.BytesPerSecond {
	return pl.PeakBW / units.BytesPerSecond(pl.Cores)
}

// WithCompulsory returns a copy with a different unloaded latency.
func (pl Platform) WithCompulsory(c units.Duration) Platform {
	pl.Compulsory = c
	pl.Name = fmt.Sprintf("%s@%v", pl.Name, c)
	return pl
}

// WithPeakBW returns a copy with a different deliverable bandwidth.
func (pl Platform) WithPeakBW(bw units.BytesPerSecond) Platform {
	pl.PeakBW = bw
	pl.Name = fmt.Sprintf("%s@%v", pl.Name, bw)
	return pl
}

// BaselinePlatform builds the paper's §VI.C.2 baseline over the given
// queuing curve (calibrated separately, Fig. 7).
func BaselinePlatform(curve queueing.Curve) Platform {
	b := params.Baseline()
	return Platform{
		Name:       "baseline-1S8C-4xDDR3-1867",
		Threads:    b.Cores * b.ThreadsPerCore,
		Cores:      b.Cores,
		CoreSpeed:  b.CoreSpeed,
		LineSize:   b.LineSize,
		Compulsory: b.Compulsory,
		PeakBW:     b.EffectiveBandwidth(),
		Queue:      curve,
	}
}

// OperatingPoint is the model's stable solution for one workload class on
// one platform.
type OperatingPoint struct {
	CPI            float64              // effective CPI per hardware thread
	MissPenalty    units.Duration       // loaded latency (compulsory + queue)
	MissPenaltyCyc units.Cycles         // same, in core cycles
	QueueDelay     units.Duration       // queuing component
	Demand         units.BytesPerSecond // total demand across threads
	Delivered      units.BytesPerSecond // min(demand, peak)
	Utilization    float64
	BandwidthBound bool // operating at channel saturation
}

// Throughput returns aggregate instructions per second across threads —
// the performance measure CPI inverts (with pathlength fixed, §IV.A).
func (op OperatingPoint) Throughput(pl Platform) float64 {
	if op.CPI <= 0 {
		return 0
	}
	return float64(pl.CoreSpeed) / op.CPI * float64(pl.Threads)
}

// opFromTopology maps a solved one-tier topology point back onto the
// flat platform's operating-point shape.
func opFromTopology(pl Platform, pt TopologyPoint) OperatingPoint {
	t := pt.Tiers[0]
	return OperatingPoint{
		CPI:            pt.CPI,
		MissPenalty:    t.MissPenalty,
		MissPenaltyCyc: t.MissPenalty.Cycles(pl.CoreSpeed),
		QueueDelay:     t.MissPenalty - pl.Compulsory,
		Demand:         t.Demand,
		Delivered:      t.Delivered,
		Utilization:    t.Utilization,
		BandwidthBound: pt.BandwidthBound,
	}
}

// Evaluate finds the stable operating point of workload class p on
// platform pl, per §VI.C.1: an iterative fixed-point between miss penalty
// and bandwidth demand, switching to the bandwidth-limited CPI when the
// channel saturates. It is the one-tier adapter over EvaluateTopology's
// solver.
//
// Aggregates planted in ctx by WithSolverStats (the engine's scheduler
// and the serve layer do this) record the solver telemetry, and
// cancellation is honored between batch points.
func Evaluate(ctx context.Context, p Params, pl Platform) (OperatingPoint, error) {
	if err := p.Validate(); err != nil {
		return OperatingPoint{}, err
	}
	if err := pl.Validate(); err != nil {
		return OperatingPoint{}, err
	}
	// A valid platform is a valid one-tier topology.
	pt, err := evaluate(ctx, p, pl.Topology())
	if err != nil {
		return OperatingPoint{}, err
	}
	return opFromTopology(pl, pt), nil
}

// EvaluateAll evaluates the full cross product of classes × platforms
// over EvaluateTopologyAll's worker pool — the point-grid path used by
// sweeps and the experiment engine. Points are returned as
// [class][platform]; the error is the first failure in that order,
// wrapped with the failing (class, platform) indices and names.
func EvaluateAll(ctx context.Context, classes []Params, platforms []Platform) ([][]OperatingPoint, error) {
	tops := make([]Topology, len(platforms))
	for j, pl := range platforms {
		if err := pl.Validate(); err != nil {
			return nil, fmt.Errorf("platform %d (%s): %w", j, pl.Name, err)
		}
		tops[j] = pl.Topology()
	}
	topoGrid, err := evaluateGrid(ctx, classes, tops, make([]error, len(tops)))
	if err != nil {
		return nil, err
	}
	grid := make([][]OperatingPoint, len(classes))
	for i := range classes {
		grid[i] = make([]OperatingPoint, len(platforms))
		for j, pl := range platforms {
			grid[i][j] = opFromTopology(pl, topoGrid[i][j])
		}
	}
	return grid, nil
}
