package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
)

// Options configures a scheduler run.
type Options struct {
	// Workers bounds how many nodes (experiments or resources) run at
	// once; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// OnResult, if set, is called as each experiment finishes. Calls are
	// serialized; completion order is nondeterministic under concurrency.
	OnResult func(ExperimentResult)
	// OnResource, if set, is called as each resource finishes (serialized
	// with OnResult).
	OnResource func(ResourceResult)
}

// ExperimentResult is the outcome of one scheduled experiment.
type ExperimentResult struct {
	Experiment
	Index    int // position in registration order, for stable presentation
	Artifact Artifact
	Err      error
	Start    time.Duration // when the experiment began, from the run's start
	Wall     time.Duration
	// SimInstr counts the aggregate instructions simulated while this
	// experiment ran (recorded via RecordSimInstr); FuncInstr counts
	// those of them simulated functionally — generated and stepped
	// through the caches — rather than replayed from a shared track
	// (recorded via RecordFuncInstr); Probes counts the measurements it
	// took (recorded via RecordProbe).
	SimInstr  uint64
	FuncInstr uint64
	Probes    uint64
	// Solver telemetry aggregated across every fixed-point solve the
	// experiment ran (recorded on the model.Aggregate the scheduler
	// plants in the experiment's context).
	Solves          int64   // fixed points solved
	SolveIterations int64   // total bisection steps across them
	SolveBWLimited  int64   // outcomes in the bandwidth-limited regime
	SolveResidual   float64 // worst |F(x)−x| among converged solves
}

// ResourceResult is the outcome of one prepared resource node.
type ResourceResult struct {
	Name  string
	Err   error
	Start time.Duration // when the resource began, from the run's start
	Wall  time.Duration
	// SimInstr and FuncInstr count the aggregate and the functionally
	// simulated instructions while the resource was prepared, and Probes
	// the measurements it took (recorded via RecordSimInstr,
	// RecordFuncInstr and RecordProbe).
	SimInstr  uint64
	FuncInstr uint64
	Probes    uint64
}

// RunResult aggregates a whole scheduler run.
type RunResult struct {
	Experiments []ExperimentResult // registration order
	Resources   []ResourceResult   // completion order
	Wall        time.Duration
	MaxParallel int // high-water mark of concurrently executing nodes
}

// Failed counts experiments that ended in error.
func (rr RunResult) Failed() int {
	n := 0
	for _, r := range rr.Experiments {
		if r.Err != nil {
			n++
		}
	}
	return n
}

// Metrics accumulates measurement counters and solver telemetry for
// one scheduled node. The scheduler plants a Metrics in each
// experiment's and each resource's context; the experiment layer
// reports simulated instructions via RecordSimInstr and
// RecordFuncInstr and measurements via RecordProbe, and every model
// solve records its fixed-point telemetry on the embedded Aggregate.
type Metrics struct {
	simInstr, funcInstr, probes atomic.Uint64

	// Aggregate accumulates the solver telemetry and promotes Stats,
	// which snapshots it. The serving daemon shares the same Aggregate
	// implementation for its process-wide /metrics counters.
	model.Aggregate
}

type metricsKey struct{}

// WithMetrics returns a context carrying a fresh Metrics recorder whose
// Aggregate is also the context's solver aggregate, so every evaluator
// call under it records its fixed-point telemetry here.
func WithMetrics(ctx context.Context) (context.Context, *Metrics) {
	m := &Metrics{}
	ctx = context.WithValue(ctx, metricsKey{}, m)
	return model.WithSolverStats(ctx, &m.Aggregate), m
}

// RecordSimInstr adds n aggregate instructions simulated on a machine
// (warm-ups, re-warms and measured phases alike). No-op when the
// context carries no recorder.
func RecordSimInstr(ctx context.Context, n uint64) {
	if m, _ := ctx.Value(metricsKey{}).(*Metrics); m != nil {
		m.simInstr.Add(n)
	}
}

// RecordFuncInstr adds n instructions a machine simulated functionally:
// generated and stepped through its caches rather than replayed from a
// track another machine extended. No-op when the context carries no
// recorder.
func RecordFuncInstr(ctx context.Context, n uint64) {
	if m, _ := ctx.Value(metricsKey{}).(*Metrics); m != nil {
		m.funcInstr.Add(n)
	}
}

// RecordProbe counts one measurement taken on a machine. No-op when the
// context carries no recorder.
func RecordProbe(ctx context.Context) {
	if m, _ := ctx.Value(metricsKey{}).(*Metrics); m != nil {
		m.probes.Add(1)
	}
}

// node is one graph vertex: an experiment or a resource.
type node struct {
	name       string
	exp        *Experiment // nil for resources
	index      int         // experiment registration index
	res        *Resource
	waiting    int     // unfinished resources (experiments only)
	dependents []*node // experiments waiting on this resource
	depErr     error   // first failed resource's error, if any
}

// Run schedules the selected experiments (nil/empty ids = the whole
// catalog) and the resources they declare over a bounded worker pool.
// Resources depend on nothing, so all of them start first, in
// registration order, ahead of the dependency-free experiments; an
// experiment starts once its last resource finishes. Cancelling ctx
// stops new nodes from starting and makes in-flight suite work return
// early; cancelled nodes report ctx's error. The returned error covers
// setup problems (unknown ids, invalid registry) only — per-experiment
// failures are in the results.
func Run(ctx context.Context, reg *Registry, ids []string, opts Options) (RunResult, error) {
	exps, err := reg.Resolve(ids)
	if err != nil {
		return RunResult{}, err
	}
	if err := reg.Validate(); err != nil {
		return RunResult{}, err
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Build the graph: the selected experiments plus the resources they
	// declare.
	index := map[string]int{}
	for i, id := range reg.IDs() {
		index[id] = i
	}
	resNodes := map[string]*node{}
	var expNodes []*node
	for i := range exps {
		e := &exps[i]
		n := &node{name: e.ID, exp: e, index: index[e.ID], waiting: len(e.Deps)}
		for _, d := range e.Deps {
			dep := resNodes[d]
			if dep == nil {
				res, _ := reg.Resource(d) // Validate guarantees presence
				dep = &node{name: d, res: &res}
				resNodes[d] = dep
			}
			dep.dependents = append(dep.dependents, n)
		}
		expNodes = append(expNodes, n)
	}

	total := len(resNodes) + len(expNodes)
	ready := make(chan *node, total)
	var (
		mu        sync.Mutex // guards waiting/depErr/remaining/running stats
		remaining = total
		running   int
		maxPar    int
		cbMu      sync.Mutex // serializes OnResult/OnResource
		resMu     sync.Mutex
	)
	rr := RunResult{Experiments: make([]ExperimentResult, len(expNodes))}
	// Seed deterministically: the resources first, in registration order
	// rather than the order experiments' deps name them (a registry
	// registers its longest resources first, so they claim workers early
	// and no long pole starts last), then the dependency-free
	// experiments in registration order.
	for _, name := range reg.resourceNames() {
		if n := resNodes[name]; n != nil {
			ready <- n
		}
	}
	for _, n := range expNodes {
		if n.waiting == 0 {
			ready <- n
		}
	}

	start := time.Now()
	finish := func(n *node, failed error) {
		mu.Lock()
		for _, d := range n.dependents {
			if failed != nil && d.depErr == nil {
				d.depErr = fmt.Errorf("dependency %s: %w", n.name, failed)
			}
			d.waiting--
			if d.waiting == 0 {
				ready <- d
			}
		}
		remaining--
		if remaining == 0 {
			close(ready)
		}
		mu.Unlock()
	}

	execute := func(n *node) {
		mu.Lock()
		running++
		if running > maxPar {
			maxPar = running
		}
		mu.Unlock()
		defer func() {
			mu.Lock()
			running--
			mu.Unlock()
		}()

		nodeErr := n.depErr
		if nodeErr == nil {
			nodeErr = ctx.Err()
		}
		t0 := time.Now()
		began := t0.Sub(start)
		if n.res != nil {
			var simInstr, funcInstr, probes uint64
			if nodeErr == nil {
				mctx, m := WithMetrics(ctx)
				nodeErr = n.res.Prepare(mctx)
				simInstr, funcInstr, probes = m.simInstr.Load(), m.funcInstr.Load(), m.probes.Load()
			}
			res := ResourceResult{Name: n.name, Err: nodeErr, Start: began, Wall: time.Since(t0), SimInstr: simInstr, FuncInstr: funcInstr, Probes: probes}
			resMu.Lock()
			rr.Resources = append(rr.Resources, res)
			resMu.Unlock()
			if opts.OnResource != nil {
				cbMu.Lock()
				opts.OnResource(res)
				cbMu.Unlock()
			}
			finish(n, nodeErr)
			return
		}

		result := ExperimentResult{Experiment: *n.exp, Index: n.index, Start: began}
		if nodeErr == nil {
			mctx, m := WithMetrics(ctx)
			result.Artifact, result.Err = n.exp.Run(mctx)
			result.SimInstr = m.simInstr.Load()
			result.FuncInstr = m.funcInstr.Load()
			result.Probes = m.probes.Load()
			st := m.Aggregate.Stats()
			result.Solves = st.Solves
			result.SolveIterations = st.Iterations
			result.SolveBWLimited = st.BandwidthLimited
			result.SolveResidual = st.MaxResidual
		} else {
			result.Err = nodeErr
		}
		result.Wall = time.Since(t0)
		// Slot keyed by position among the *selected* experiments so the
		// output order is stable regardless of completion order.
		for i := range expNodes {
			if expNodes[i] == n {
				rr.Experiments[i] = result
				break
			}
		}
		if opts.OnResult != nil {
			cbMu.Lock()
			opts.OnResult(result)
			cbMu.Unlock()
		}
		finish(n, result.Err)
	}

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := range ready {
				execute(n)
			}
		}()
	}
	wg.Wait()
	rr.Wall = time.Since(start)
	mu.Lock()
	rr.MaxParallel = maxPar
	mu.Unlock()
	return rr, nil
}
