package solve

import "context"

// Recorder observes every Outcome Solve produces. Implementations
// must be safe for concurrent use: SolveAll and the experiment engine
// solve scenarios from many goroutines against one recorder.
//
// The engine's per-experiment Metrics implements Recorder, which is how
// solver telemetry (solve counts, total iterations, bandwidth-bound
// points, worst residual) reaches results/manifest.json.
type Recorder interface {
	RecordSolve(Outcome)
}

type recorderKey struct{}

// WithRecorder returns a context that delivers every solver Outcome
// under it to r. Solve finds the recorder via the context, so the
// experiment layer never threads telemetry by hand — planting it once
// at the scheduler covers every nested evaluator call.
func WithRecorder(ctx context.Context, r Recorder) context.Context {
	return context.WithValue(ctx, recorderKey{}, r)
}

// record delivers out to the context's recorder, if any.
func record(ctx context.Context, out Outcome) {
	if r, _ := ctx.Value(recorderKey{}).(Recorder); r != nil {
		r.RecordSolve(out)
	}
}
