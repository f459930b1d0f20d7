package model

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"repro/internal/queueing"
)

// Canonical scenario serialization. The serving layer caches solved
// operating points keyed by the *mathematical* content of a request, so
// two requests that describe the same fixed-point problem must produce
// the same key no matter how they were spelled. The canonicalization
// rules:
//
//   - Names (Params.Name, platform names, tier names) are excluded: they
//     label telemetry, not the solved problem. "bigdata" requested by
//     class and the same six numbers entered by hand share a cache line.
//   - Every float is rendered with strconv's exact hexadecimal format,
//     so distinct bit patterns never collide and equal values never
//     diverge through decimal rounding.
//   - A queuing curve is fingerprinted behaviorally: its Delay sampled
//     on a fixed utilization ladder plus its MaxStableDelay (and ULimit
//     when the curve declares one). Two Curve implementations that agree
//     at every probe are treated as the same curve — the probe ladder is
//     the resolution limit of the cache key, documented in DESIGN.md.
//
// ScenarioKey folds canonical strings into a compact FNV-1a hash for
// use as a map key.

// curveProbes is the utilization ladder for fingerprinting curves. It is
// dense at the top because queuing curves carry their shape near
// saturation.
var curveProbes = []float64{
	0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50,
	0.55, 0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.92, 0.94,
	0.95, 0.96, 0.97, 0.98, 0.99, 1,
}

// HexFloat renders f in the exact hexadecimal floating-point format —
// the one float spelling of every canonical key in the repo.
func HexFloat(f float64) string { return strconv.FormatFloat(f, 'x', -1, 64) }

// CanonicalCurve fingerprints a queuing curve by probing it on the
// utilization ladder.
func CanonicalCurve(c queueing.Curve) string {
	var b strings.Builder
	b.WriteString("curve{")
	for i, u := range curveProbes {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(HexFloat(float64(c.Delay(u))))
	}
	fmt.Fprintf(&b, "|max=%s", HexFloat(float64(c.MaxStableDelay())))
	if l, ok := c.(interface{ ULimit() float64 }); ok {
		fmt.Fprintf(&b, "|ulimit=%s", HexFloat(l.ULimit()))
	}
	b.WriteByte('}')
	return b.String()
}

// CanonicalParams serializes the Eq. 1/4 components of p, excluding its
// name.
func CanonicalParams(p Params) string {
	return fmt.Sprintf("params{cpicache=%s,bf=%s,mpki=%s,wbr=%s,iopi=%s,iosz=%s}",
		HexFloat(p.CPICache), HexFloat(p.BF), HexFloat(p.MPKI),
		HexFloat(p.WBR), HexFloat(p.IOPI), HexFloat(p.IOSZ))
}

// CanonicalPlatform serializes the supply side of pl, excluding its
// name.
func CanonicalPlatform(pl Platform) string {
	return fmt.Sprintf("platform{threads=%d,cores=%d,cps=%s,ls=%s,comp=%s,peak=%s,%s}",
		pl.Threads, pl.Cores, HexFloat(float64(pl.CoreSpeed)), HexFloat(float64(pl.LineSize)),
		HexFloat(float64(pl.Compulsory)), HexFloat(float64(pl.PeakBW)), CanonicalCurve(pl.Queue))
}

// CanonicalTopology serializes an N-tier topology, excluding tier and
// topology names. Tier order is significant (it is the order the
// bandwidth-limit clamps chain in), and the policy is part of the
// problem (the same tiers under a different split solve differently).
// Tier efficiency enters through the sustained bandwidth rather than
// the raw factor, so a tier spelled with Efficiency 1 and one spelled
// with the 0 default share a cache line (both deliver peak).
func CanonicalTopology(top Topology) string {
	var b strings.Builder
	fmt.Fprintf(&b, "topology{policy=%s,threads=%d,cores=%d,cps=%s,ls=%s,rf=%s,tiers=[",
		top.Policy, top.Threads, top.Cores, HexFloat(float64(top.CoreSpeed)),
		HexFloat(float64(top.LineSize)), HexFloat(top.RemoteFraction))
	for i, t := range top.Tiers {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "share=%s,comp=%s,peak=%s,sust=%s,%s",
			HexFloat(t.Share), HexFloat(float64(t.Compulsory)), HexFloat(float64(t.PeakBW)),
			HexFloat(float64(t.SustainedBW())), CanonicalCurve(t.Queue))
	}
	b.WriteString("]}")
	return b.String()
}

// ScenarioKey folds canonical strings (and any extra discriminators,
// such as a sweep axis) into a compact hash key.
func ScenarioKey(parts ...string) string {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0}) // separator so part boundaries matter
	}
	return strconv.FormatUint(h.Sum64(), 16)
}
