package cluster

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/model"
)

// Policy selects how arrivals are routed across hosts.
type Policy int

const (
	// RoundRobin cycles each tenant's arrivals through the hosts in
	// order, blind to load and memory tiers.
	RoundRobin Policy = iota
	// LeastLoaded routes to the host with the fewest requests in
	// service or queued, ties broken by host index.
	LeastLoaded
	// WeightedScore routes to the host minimizing predicted completion
	// cost: the tenant's model-predicted service time there, scaled by
	// the host's occupancy and by its bandwidth headroom after adding
	// the request's predicted demand. This is the policy that reads the
	// analytic model — it steers latency-sensitive tenants away from
	// far-memory hosts and bandwidth-hungry tenants onto high-bandwidth
	// tiers.
	WeightedScore
)

func (p Policy) valid() bool { return p >= RoundRobin && p <= WeightedScore }

// String returns the wire name of the policy.
func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case LeastLoaded:
		return "least-loaded"
	case WeightedScore:
		return "weighted"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy maps a wire name onto a Policy. Errors wrap
// model.ErrInvalidPlatform for serving-layer classification.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(s) {
	case "round-robin", "rr":
		return RoundRobin, nil
	case "least-loaded", "ll":
		return LeastLoaded, nil
	case "weighted", "weighted-score", "ws":
		return WeightedScore, nil
	}
	return 0, fmt.Errorf("%w: unknown routing policy %q (want round-robin, least-loaded, or weighted)",
		model.ErrInvalidPlatform, s)
}

// Policies lists every routing policy in wire order.
func Policies() []Policy { return []Policy{RoundRobin, LeastLoaded, WeightedScore} }

// route picks the host for one arrival of tenant t. All inputs are
// deterministic simulation state, so the choice is too. The load-aware
// policies start from host 0 and take a later host only when it is
// strictly better, so ties go to the lower index; the selection masks
// instead of branching, since which host wins changes arrival to
// arrival.
func (f *fleet) route(t int) int {
	switch f.spec.Policy {
	case LeastLoaded:
		best, bestLoad := 0, f.hosts[0].inflight+f.hosts[0].queued()
		for h := 1; h < len(f.hosts); h++ {
			load := f.hosts[h].inflight + f.hosts[h].queued()
			m := -b2i(load < bestLoad)
			best += (h - best) & m
			bestLoad += (load - bestLoad) & m
		}
		return best
	case WeightedScore:
		prices := f.pr.prices[t]
		best, bestScore := 0, f.score(&f.hosts[0], &prices[0])
		for h := 1; h < len(f.hosts); h++ {
			score := f.score(&f.hosts[h], &prices[h])
			m := -b2i(score < bestScore)
			best += (h - best) & m
			bestScore = math.Float64frombits(math.Float64bits(bestScore) ^
				(math.Float64bits(score)^math.Float64bits(bestScore))&uint64(m))
		}
		return best
	default: // RoundRobin
		h := f.rr[t] % len(f.hosts)
		f.rr[t]++
		return h
	}
}

// score is the weighted policy's predicted completion cost of one
// request priced pr on host hs: its service time, scaled by the host's
// occupancy and by its bandwidth headroom after adding the request.
func (f *fleet) score(hs *hostState, pr *price) float64 {
	headroom := max((hs.demand+pr.demand)/hs.capacity, 1)
	return pr.service.Nanoseconds() * hs.occupancy * headroom
}

// b2i is 1 for true and 0 for false; the compiler emits a SETcc.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
