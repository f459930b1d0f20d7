package cluster

import (
	"context"
	"fmt"
	"math"

	"repro/api"
	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/workgen"
)

// ctxCheckEvents is how often the event loop polls ctx — the same
// cadence internal/sim uses per simulation step.
const ctxCheckEvents = 1024

// price is the model's prediction for one (tenant, host) pair: the
// unloaded service time of one request and its bandwidth footprint.
type price struct {
	service units.Duration // Work × CPI / CoreSpeed at the solved operating point
	demand  float64        // B/s one in-service request adds to the host
}

// pricing is the policy-independent pass of one Spec, shared by every
// policy run over it: routing never feeds back into the prices, and
// every policy's fleet replays the same arrivals from one Stream.
type pricing struct {
	prices   [][]price        // [tenant][host]
	minServe []units.Duration // per tenant: the best host's service time
	arrivals workgen.Spec     // tenant t is client t, a one-scenario Poisson process
}

// pending is one admitted request waiting for a service slot.
type pending struct {
	tenant  int32
	arrived units.Duration
}

// hostState is the mutable serving state of one host.
type hostState struct {
	spec     *HostSpec
	slots    int
	capacity float64 // Σ tier sustained bandwidth, B/s

	inflight  int
	queue     []pending // FIFO; queue[head:] is waiting
	head      int
	occupancy float64 // 1 + (inflight+queued)/slots, kept by recount
	demand    float64 // B/s of in-service requests

	tokens     float64
	lastRefill units.Duration

	busy        units.Duration
	completions int64
	shed        int64
	peakQueue   int
}

// queued is the wait-queue length.
func (hs *hostState) queued() int { return len(hs.queue) - hs.head }

// recount refreshes the cached occupancy the weighted policy scores
// by; call it whenever inflight or the queue length changes.
func (hs *hostState) recount() {
	hs.occupancy = 1 + float64(hs.inflight+hs.queued())/float64(hs.slots)
}

// enqueue appends req, first sliding the waiting requests down to the
// front when the backing array is full, so memory tracks the live
// queue rather than every request the host ever queued.
func (hs *hostState) enqueue(req pending) {
	if hs.head > 0 && len(hs.queue) == cap(hs.queue) {
		n := copy(hs.queue, hs.queue[hs.head:])
		hs.queue, hs.head = hs.queue[:n], 0
	}
	hs.queue = append(hs.queue, req)
}

// dequeue pops the oldest waiting request; a drained queue rewinds to
// reuse its backing array.
func (hs *hostState) dequeue() pending {
	req := hs.queue[hs.head]
	hs.head++
	if hs.head == len(hs.queue) {
		hs.queue, hs.head = hs.queue[:0], 0
	}
	return req
}

// tenantState accumulates one tenant's observations.
type tenantState struct {
	offered int64
	shed    int64
	samples []float64 // latency ns, post-warmup arrivals only
}

// fleet is one policy's running simulation.
type fleet struct {
	spec   Spec
	hosts  []hostState
	tens   []tenantState
	pr     *pricing
	rr     []int     // per-tenant round-robin cursor
	heap   eventHeap // pending completions only
	seq    uint64
	hash   trace.Hash64
	events int64
	limit  int64          // event budget
	last   units.Duration // latest completion timestamp seen
}

// arrival is one request of the shared stream, its time converted to
// nanoseconds once for every policy's fleet.
type arrival struct {
	at     units.Duration
	tenant int32
}

// arrivalChunk is how many arrivals runFleets reads from the stream
// before handing them to each fleet in turn.
const arrivalChunk = 1024

// Simulate runs the fleet to completion: arrivals over [0, Duration),
// then a full drain of every queue. ctx cancellation is honored both in
// the per-pair model evaluations and inside the event loop.
func Simulate(ctx context.Context, spec Spec) (Result, error) {
	res, err := SimulatePolicies(ctx, spec, []Policy{spec.Policy})
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// SimulatePolicies runs spec once under each policy (spec.Policy is
// ignored) and returns the results in policy order. The model pricing
// pass and the arrival stream are generated once and shared; each
// policy has its own host state and event loop, so results[i] is
// exactly Simulate with Policy = policies[i].
func SimulatePolicies(ctx context.Context, spec Spec, policies []Policy) ([]Result, error) {
	for _, p := range policies {
		s := spec
		s.Policy = p
		if err := s.Validate(); err != nil {
			return nil, err
		}
	}
	pr, err := newPricing(ctx, spec)
	if err != nil {
		return nil, err
	}
	fleets := make([]*fleet, len(policies))
	for i, p := range policies {
		s := spec
		s.Policy = p
		fleets[i] = newFleet(s, pr)
	}
	if err := runFleets(ctx, pr.arrivals.Stream(), fleets); err != nil {
		return nil, err
	}
	out := make([]Result, len(policies))
	for i, f := range fleets {
		out[i] = f.result()
	}
	return out, nil
}

// runFleets plays one arrival stream through every fleet: it reads the
// stream a chunk at a time and replays each chunk on each fleet in
// turn, then drains every fleet once the stream ends. No fleet reads
// another's state, so the chunking moves no event.
func runFleets(ctx context.Context, arr *workgen.Stream, fleets []*fleet) error {
	chunk := make([]arrival, 0, arrivalChunk)
	for more := true; more; {
		chunk = chunk[:0]
		for len(chunk) < arrivalChunk {
			a, ok := arr.Next()
			if !ok {
				more = false
				break
			}
			chunk = append(chunk, arrival{at: units.Duration(a.At * 1e9), tenant: int32(a.Client)})
		}
		for _, f := range fleets {
			if err := f.replay(ctx, chunk); err != nil {
				return err
			}
		}
	}
	for _, f := range fleets {
		if err := f.drain(ctx); err != nil {
			return err
		}
	}
	return nil
}

// newPricing prices every (tenant, host) pair through the analytic
// model, one solve per pair, and builds each tenant's arrival process.
func newPricing(ctx context.Context, spec Spec) (*pricing, error) {
	pr := &pricing{
		prices:   make([][]price, len(spec.Tenants)),
		minServe: make([]units.Duration, len(spec.Tenants)),
		arrivals: workgen.Spec{Duration: spec.Duration.Seconds(), Seed: spec.Seed,
			Clients: make([]workgen.Client, len(spec.Tenants))},
	}
	for t := range spec.Tenants {
		ten := &spec.Tenants[t]
		proc, err := workgen.NewProcess(api.ArrivalSpec{}, ten.Rate)
		if err != nil {
			return nil, fmt.Errorf("cluster: tenant %s: %w", ten.Name, err)
		}
		pr.arrivals.Clients[t] = workgen.Client{Name: ten.Name, Rate: ten.Rate, Process: proc}
		pr.prices[t] = make([]price, len(spec.Hosts))
		for h := range spec.Hosts {
			top := &spec.Hosts[h].Topology
			pt, err := model.EvaluateTopology(ctx, ten.Params, *top)
			if err != nil {
				return nil, fmt.Errorf("cluster: tenant %s on host %s: %w", ten.Name, spec.Hosts[h].Name, err)
			}
			service := units.Duration(ten.Work * pt.CPI / float64(top.CoreSpeed) * 1e9)
			var total float64
			for _, tier := range pt.Tiers {
				total += float64(tier.Demand)
			}
			pr.prices[t][h] = price{service: service, demand: total / float64(top.Threads)}
			if pr.minServe[t] == 0 || service < pr.minServe[t] {
				pr.minServe[t] = service
			}
		}
	}
	return pr, nil
}

// newFleet builds fresh host and tenant state for one policy run and
// starts its arrival stream.
func newFleet(spec Spec, pr *pricing) *fleet {
	f := &fleet{
		spec:  spec,
		hosts: make([]hostState, len(spec.Hosts)),
		tens:  make([]tenantState, len(spec.Tenants)),
		pr:    pr,
		rr:    make([]int, len(spec.Tenants)),
		hash:  trace.NewHash64(),
		limit: defaultMaxEvents,
	}
	if spec.MaxEvents > 0 {
		f.limit = int64(spec.MaxEvents)
	}
	// A run within budget completes at most limit/2 requests, each one
	// arrival and one completion; no buffer below outgrows that.
	maxRequests := f.limit / 2
	var rate float64
	for t := range spec.Tenants {
		rate += spec.Tenants[t].Rate
	}
	// The heap holds at most one pending completion per slot and one
	// per arrival. The expected arrival count caps the presize, so a
	// host declaring more slots than its traffic can fill costs nothing.
	maxDepth := expectedCount(rate*spec.Duration.Seconds(), maxRequests)
	depth := 0
	for h := range spec.Hosts {
		hs := &f.hosts[h]
		hs.spec = &spec.Hosts[h]
		hs.slots = hs.spec.slots()
		depth = min(depth+min(hs.slots, maxDepth), maxDepth)
		for _, tier := range hs.spec.Topology.Tiers {
			hs.capacity += float64(tier.SustainedBW())
		}
		if hs.spec.AdmitRate > 0 {
			hs.tokens = hs.spec.burst()
		}
		hs.recount()
	}
	f.heap = make(eventHeap, 0, depth)
	window := (spec.Duration - spec.Warmup).Seconds()
	for t := range spec.Tenants {
		f.tens[t].samples = make([]float64, 0, expectedCount(spec.Tenants[t].Rate*window, maxRequests))
	}
	return f
}

// expectedCount sizes a buffer for a Poisson count of mean n: the mean
// plus four standard deviations, so the buffer rarely regrows, and
// never more than ceiling.
func expectedCount(n float64, ceiling int64) int {
	return int(math.Min(n+4*math.Sqrt(n)+16, float64(ceiling)))
}

// replay handles one chunk of the arrival stream. Before each arrival
// it handles every completion due at or before it: on equal timestamps
// the completion goes first, so a slot freed at t is free for a
// request arriving at t.
func (f *fleet) replay(ctx context.Context, chunk []arrival) error {
	for i := range chunk {
		a := &chunk[i]
		for len(f.heap) > 0 && f.heap[0].at <= a.at {
			if err := f.count(ctx); err != nil {
				return err
			}
			f.completeNext()
		}
		if err := f.count(ctx); err != nil {
			return err
		}
		f.hash.Fold(0)
		f.hash.Fold(uint64(a.tenant))
		f.hash.Fold(math.Float64bits(float64(a.at)))
		f.arrive(a.tenant, a.at)
	}
	return nil
}

// drain handles the completions left once the stream has ended.
func (f *fleet) drain(ctx context.Context) error {
	for len(f.heap) > 0 {
		if err := f.count(ctx); err != nil {
			return err
		}
		f.completeNext()
	}
	return nil
}

// count admits one more event against the budget, polling ctx every
// ctxCheckEvents events.
func (f *fleet) count(ctx context.Context) error {
	if f.events%ctxCheckEvents == 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	if f.events >= f.limit {
		return fmt.Errorf("%w: cluster event budget exceeded (%d events; shrink duration or rates)",
			model.ErrInvalidPlatform, f.limit)
	}
	f.events++
	return nil
}

// completeNext pops the earliest completion and handles it.
func (f *fleet) completeNext() {
	e := f.heap[0]
	f.heap.pop()
	f.hash.Fold(1)
	f.hash.Fold(uint64(e.tenant))
	f.hash.Fold(uint64(e.host))
	f.hash.Fold(math.Float64bits(float64(e.at)))
	f.complete(&e)
}

// arrive routes, admits, and either starts or queues one request of
// tenant t arriving at now.
func (f *fleet) arrive(t int32, now units.Duration) {
	ts := &f.tens[t]
	measured := now >= f.spec.Warmup
	if measured {
		ts.offered++
	}

	h := f.route(int(t))
	hs := &f.hosts[h]
	if hs.spec.AdmitRate > 0 && !hs.admit(now) {
		hs.shed++
		if measured {
			ts.shed++
		}
		return
	}
	req := pending{tenant: t, arrived: now}
	if hs.inflight < hs.slots {
		f.startService(h, req, now)
	} else {
		hs.enqueue(req)
		hs.peakQueue = max(hs.peakQueue, hs.queued())
	}
	hs.recount()
}

// admit refills the token bucket up to now and spends one token if
// available.
func (hs *hostState) admit(now units.Duration) bool {
	burst := hs.spec.burst()
	hs.tokens += hs.spec.AdmitRate * (now - hs.lastRefill).Seconds()
	if hs.tokens > burst {
		hs.tokens = burst
	}
	hs.lastRefill = now
	if hs.tokens < 1 {
		return false
	}
	hs.tokens--
	return true
}

// startService occupies a slot. The service time is the model-predicted
// base stretched by the host's bandwidth oversubscription at dispatch:
// when the in-service requests' combined predicted demand exceeds the
// host's sustained bandwidth, every byte takes proportionally longer.
// The stretch is fixed at dispatch — a deterministic first-order stand-in
// for re-solving the operating point as the mix changes.
func (f *fleet) startService(h int, req pending, now units.Duration) {
	hs := &f.hosts[h]
	pr := f.price(int(req.tenant), h)
	hs.inflight++
	hs.demand += pr.demand
	stretch := 1.0
	if hs.capacity > 0 && hs.demand > hs.capacity {
		stretch = hs.demand / hs.capacity
	}
	dur := units.Duration(pr.service.Nanoseconds() * stretch)
	hs.busy += dur
	f.heap.push(event{at: now + dur, seq: f.seq, arrived: req.arrived, tenant: req.tenant, host: int32(h)})
	f.seq++
}

// complete frees the slot, records the request, and dispatches the next
// queued request if any.
func (f *fleet) complete(e *event) {
	h := int(e.host)
	hs := &f.hosts[h]
	hs.inflight--
	hs.demand -= f.price(int(e.tenant), h).demand
	if hs.demand < 0 {
		hs.demand = 0 // guard float drift
	}
	hs.completions++
	if e.at > f.last {
		f.last = e.at
	}
	if e.arrived >= f.spec.Warmup {
		ts := &f.tens[e.tenant]
		ts.samples = append(ts.samples, (e.at - e.arrived).Nanoseconds())
	}
	if hs.queued() > 0 {
		f.startService(h, hs.dequeue(), e.at)
	}
	hs.recount()
}

func (f *fleet) price(t, h int) *price { return &f.pr.prices[t][h] }
