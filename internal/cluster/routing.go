package cluster

import (
	"fmt"
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
// deterministic simulation state, so the choice is too.
func (f *fleet) route(t int) int {
	switch f.spec.Policy {
	case LeastLoaded:
		best, bestLoad := 0, -1
		for h := range f.hosts {
			load := f.hosts[h].inflight + f.hosts[h].queued()
			if bestLoad < 0 || load < bestLoad {
				best, bestLoad = h, load
			}
		}
		return best
	case WeightedScore:
		best, bestScore := 0, -1.0
		for h := range f.hosts {
			hs := &f.hosts[h]
			pr := f.price(t, h)
			occupancy := 1 + float64(hs.inflight+hs.queued())/float64(hs.slots)
			headroom := (hs.demand + pr.demand) / hs.capacity
			if headroom < 1 {
				headroom = 1
			}
			score := pr.service.Nanoseconds() * occupancy * headroom
			if bestScore < 0 || score < bestScore {
				best, bestScore = h, score
			}
		}
		return best
	default: // RoundRobin
		h := f.rr[t] % len(f.hosts)
		f.rr[t]++
		return h
	}
}
