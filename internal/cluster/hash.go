package cluster

import (
	"fmt"
	"strings"

	"repro/internal/model"
)

// Canonical spec serialization, following the model/hash.go rules: the
// serving layer caches fleet runs keyed by the mathematical content of
// the Spec, so names are excluded (the serving layer keys the names its
// reply echoes as a separate part), every float is rendered in exact
// hexadecimal, and host topologies reuse model.CanonicalTopology. Host
// and tenant order is significant — it is the routing and seeding
// order.

// CanonicalSpec serializes everything the outcome of simulating s under
// each of policies depends on (s.Policy is not read): the policy list,
// then the policy-independent rest, rendered once.
func CanonicalSpec(s Spec, policies []Policy) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cluster{policies=%v,dur=%s,warm=%s,seed=%d,maxev=%d,hosts=[", policies,
		model.HexFloat(float64(s.Duration)), model.HexFloat(float64(s.Warmup)), s.Seed, s.MaxEvents)
	for i, h := range s.Hosts {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "slots=%d,rate=%s,burst=%s,%s", h.slots(), model.HexFloat(h.AdmitRate),
			model.HexFloat(h.AdmitBurst), model.CanonicalTopology(h.Topology))
	}
	b.WriteString("],tenants=[")
	for i, t := range s.Tenants {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "rate=%s,work=%s,%s",
			model.HexFloat(t.Rate), model.HexFloat(t.Work), model.CanonicalParams(t.Params))
	}
	b.WriteString("]}")
	return b.String()
}
