package engine

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// orderRecorder tracks completion order across nodes.
type orderRecorder struct {
	mu    sync.Mutex
	order []string
}

func (o *orderRecorder) add(name string) {
	o.mu.Lock()
	o.order = append(o.order, name)
	o.mu.Unlock()
}

func (o *orderRecorder) indexOf(name string) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	for i, n := range o.order {
		if n == name {
			return i
		}
	}
	return -1
}

func TestRunRespectsDAGOrder(t *testing.T) {
	// {base, mid} <- {e1, e2}; e0 independent. Every experiment must
	// observe both of its resources finished first.
	rec := &orderRecorder{}
	r := NewRegistry()
	r.MustRegisterResource(Resource{Name: "base", Prepare: func(context.Context) error {
		time.Sleep(5 * time.Millisecond)
		rec.add("base")
		return nil
	}})
	r.MustRegisterResource(Resource{Name: "mid", Prepare: func(context.Context) error {
		rec.add("mid")
		return nil
	}})
	mk := func(id string, deps ...string) {
		r.MustRegister(Experiment{ID: id, Deps: deps, Run: func(context.Context) (Artifact, error) {
			rec.add(id)
			return Artifact{ID: id}, nil
		}})
	}
	mk("e0")
	mk("e1", "base", "mid")
	mk("e2", "base", "mid")

	rr, err := Run(context.Background(), r, nil, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Failed() != 0 {
		t.Fatalf("failed = %d", rr.Failed())
	}
	if len(rr.Experiments) != 3 || len(rr.Resources) != 2 {
		t.Fatalf("results: %d experiments, %d resources", len(rr.Experiments), len(rr.Resources))
	}
	// Results come back in registration order regardless of completion.
	for i, want := range []string{"e0", "e1", "e2"} {
		if rr.Experiments[i].ID != want {
			t.Fatalf("experiment[%d] = %s, want %s", i, rr.Experiments[i].ID, want)
		}
	}
	for _, e := range []string{"e1", "e2"} {
		for _, res := range []string{"base", "mid"} {
			if !(rec.indexOf(res) < rec.indexOf(e)) {
				t.Fatalf("%s ran before %s: %v", e, res, rec.order)
			}
		}
	}
}

func TestRunBoundsParallelism(t *testing.T) {
	// 8 independent experiments, 2 workers: observed concurrency must
	// exceed 1 (it actually runs in parallel) and never exceed 2.
	var cur, peak atomic.Int64
	r := NewRegistry()
	for _, id := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		r.MustRegister(Experiment{ID: id, Run: func(context.Context) (Artifact, error) {
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(10 * time.Millisecond)
			cur.Add(-1)
			return Artifact{}, nil
		}})
	}
	rr, err := Run(context.Background(), r, nil, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got != 2 {
		t.Fatalf("observed peak parallelism = %d, want exactly 2", got)
	}
	if rr.MaxParallel < 2 || rr.MaxParallel > 2 {
		t.Fatalf("reported MaxParallel = %d", rr.MaxParallel)
	}
}

func TestRunCancellationMidRun(t *testing.T) {
	// The first experiment cancels the run; blocked experiments must
	// still drain (no deadlock) and report the context error.
	ctx, cancel := context.WithCancel(context.Background())
	r := NewRegistry()
	r.MustRegister(Experiment{ID: "canceller", Run: func(ctx context.Context) (Artifact, error) {
		cancel()
		return Artifact{}, ctx.Err()
	}})
	for _, id := range []string{"x", "y", "z"} {
		r.MustRegister(Experiment{ID: id, Run: func(ctx context.Context) (Artifact, error) {
			if err := ctx.Err(); err != nil {
				return Artifact{}, err
			}
			return Artifact{}, nil
		}})
	}

	done := make(chan struct{})
	var rr RunResult
	var err error
	go func() {
		rr, err = Run(ctx, r, nil, Options{Workers: 1})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
	if err != nil {
		t.Fatal(err)
	}
	if rr.Failed() == 0 {
		t.Fatal("cancelled run must report failures")
	}
	// With one worker the canceller runs first; everything after reports
	// context.Canceled (either pre-checked by the scheduler or returned
	// by the experiment).
	for _, res := range rr.Experiments[1:] {
		if !errors.Is(res.Err, context.Canceled) {
			t.Fatalf("%s err = %v, want context.Canceled", res.ID, res.Err)
		}
	}
}

func TestRunPropagatesResourceFailure(t *testing.T) {
	boom := errors.New("calibration exploded")
	r := NewRegistry()
	r.MustRegisterResource(Resource{Name: "curve", Prepare: func(context.Context) error { return boom }})
	r.MustRegister(Experiment{ID: "ok", Run: func(context.Context) (Artifact, error) { return Artifact{}, nil }})
	r.MustRegister(Experiment{ID: "needy", Deps: []string{"curve"}, Run: func(context.Context) (Artifact, error) {
		t.Error("experiment with failed dependency must not run")
		return Artifact{}, nil
	}})

	rr, err := Run(context.Background(), r, nil, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Failed() != 1 {
		t.Fatalf("failed = %d, want 1", rr.Failed())
	}
	var needy ExperimentResult
	for _, res := range rr.Experiments {
		if res.ID == "needy" {
			needy = res
		}
	}
	if needy.Err == nil || !errors.Is(needy.Err, boom) {
		t.Fatalf("needy err = %v, want wrapped %v", needy.Err, boom)
	}
	// The error names the failed resource so the operator can see which
	// dependency broke the experiment.
	if !strings.Contains(needy.Err.Error(), "curve") {
		t.Fatalf("err %q does not name the resource", needy.Err)
	}
}

// TestRunSeedsResourcesInRegistrationOrder: ready resources start in
// the order they were registered, not the order experiments' deps
// discover them, and all of them before a dependency-free experiment.
// One worker makes the start order the seeding order; each node's
// recorded Start follows it.
func TestRunSeedsResourcesInRegistrationOrder(t *testing.T) {
	rec := &orderRecorder{}
	r := NewRegistry()
	registered := []string{"heavy", "mid", "light"}
	for _, name := range registered {
		r.MustRegisterResource(Resource{Name: name, Prepare: func(context.Context) error {
			rec.add(name)
			return nil
		}})
	}
	mk := func(id string, deps ...string) {
		r.MustRegister(Experiment{ID: id, Deps: deps, Run: func(context.Context) (Artifact, error) {
			rec.add(id)
			return Artifact{ID: id}, nil
		}})
	}
	// Discovery order is the reverse of registration order.
	mk("free")
	mk("uses-light", "light")
	mk("uses-mid", "mid", "light")
	mk("uses-heavy", "heavy")

	rr, err := Run(context.Background(), r, nil, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Failed() != 0 {
		t.Fatalf("failed = %d", rr.Failed())
	}
	want := append(append([]string(nil), registered...), "free")
	if got := rec.order[:len(want)]; !slices.Equal(got, want) {
		t.Fatalf("start order %v, want %v first", rec.order, want)
	}
	// Resources complete in start order on one worker.
	for i := 1; i < len(rr.Resources); i++ {
		if prev, cur := rr.Resources[i-1], rr.Resources[i]; cur.Start < prev.Start+prev.Wall {
			t.Fatalf("%s started at %v, before %s ended (%v + %v)", cur.Name, cur.Start, prev.Name, prev.Start, prev.Wall)
		}
	}
	last := rr.Resources[len(rr.Resources)-1]
	if free := rr.Experiments[0]; free.Start < last.Start+last.Wall {
		t.Fatalf("free started at %v, before the last resource ended (%v + %v)", free.Start, last.Start, last.Wall)
	}
}

func TestRunUnknownIDIsSetupError(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(Experiment{ID: "real", Run: noopRun})
	if _, err := Run(context.Background(), r, []string{"fake"}, Options{}); err == nil {
		t.Fatal("want setup error for unknown id")
	}
}

func TestRunSelectionSkipsUnneededResources(t *testing.T) {
	prepared := false
	r := NewRegistry()
	r.MustRegisterResource(Resource{Name: "heavy", Prepare: func(context.Context) error {
		prepared = true
		return nil
	}})
	r.MustRegister(Experiment{ID: "light", Run: noopRun})
	r.MustRegister(Experiment{ID: "heavy-user", Deps: []string{"heavy"}, Run: noopRun})

	rr, err := Run(context.Background(), r, []string{"light"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if prepared {
		t.Fatal("resource outside the selection's closure must not be prepared")
	}
	if len(rr.Experiments) != 1 || rr.Experiments[0].ID != "light" {
		t.Fatalf("experiments = %v", rr.Experiments)
	}
	if len(rr.Resources) != 0 {
		t.Fatalf("resources = %v", rr.Resources)
	}
}

func TestMetricsFlowIntoResults(t *testing.T) {
	r := NewRegistry()
	r.MustRegisterResource(Resource{Name: "grid", Prepare: func(ctx context.Context) error {
		RecordSimInstr(ctx, 1000)
		RecordFuncInstr(ctx, 400)
		RecordSimInstr(ctx, 500)
		return nil
	}})
	r.MustRegister(Experiment{ID: "counting", Deps: []string{"grid"}, Run: func(ctx context.Context) (Artifact, error) {
		RecordSimInstr(ctx, 7)
		RecordFuncInstr(ctx, 3)
		return Artifact{}, nil
	}})
	rr, err := Run(context.Background(), r, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res := rr.Resources[0]; res.SimInstr != 1500 || res.FuncInstr != 400 {
		t.Fatalf("resource metrics = %d sim / %d func, want 1500/400", res.SimInstr, res.FuncInstr)
	}
	if res := rr.Experiments[0]; res.SimInstr != 7 || res.FuncInstr != 3 {
		t.Fatalf("experiment metrics = %d sim / %d func, want 7/3", res.SimInstr, res.FuncInstr)
	}
}

func TestRecordersAreNoOpsWithoutMetrics(t *testing.T) {
	// Suite methods are callable outside the scheduler; recording into a
	// bare context must not panic.
	RecordSimInstr(context.Background(), 1)
	RecordFuncInstr(context.Background(), 1)
}
