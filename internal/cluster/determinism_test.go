package cluster

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/units"
)

// TestDeterminism is the contract test: the same Spec and seed must
// reproduce the event stream and every metric bit-exactly, run to run.
func TestDeterminism(t *testing.T) {
	for _, p := range Policies() {
		a, err := Simulate(bg, defaultSpec(p))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		b, err := Simulate(bg, defaultSpec(p))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if a.EventHash != b.EventHash {
			t.Errorf("%s: event order diverged: %x vs %x", p, a.EventHash, b.EventHash)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: results diverged between identical runs", p)
		}
	}
}

// TestSeedSensitivity: a different seed is a different traffic trace —
// the event hash must move, and so must at least one latency sample set.
func TestSeedSensitivity(t *testing.T) {
	base := defaultSpec(WeightedScore)
	reseeded := defaultSpec(WeightedScore)
	reseeded.Seed = base.Seed + 1
	a, err := Simulate(bg, base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(bg, reseeded)
	if err != nil {
		t.Fatal(err)
	}
	if a.EventHash == b.EventHash {
		t.Error("different seeds produced identical event streams")
	}
}

// TestPoliciesDiverge: routing is part of the event order, so distinct
// policies must produce distinct event hashes on the same traffic.
func TestPoliciesDiverge(t *testing.T) {
	seen := map[uint64]Policy{}
	for _, p := range Policies() {
		res, err := Simulate(bg, defaultSpec(p))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if prev, dup := seen[res.EventHash]; dup {
			t.Errorf("%s and %s produced the same event hash", p, prev)
		}
		seen[res.EventHash] = p
	}
}

// TestSimulatePoliciesMatchesSimulate: the policies share one arrival
// stream and run chunk by chunk in lockstep, yet each must see exactly
// the run Simulate gives it alone, down to the event hash and every
// float of its Result.
func TestSimulatePoliciesMatchesSimulate(t *testing.T) {
	for name, spec := range map[string]Spec{
		"default": defaultSpec(WeightedScore),
		"shed":    goldenShedSpec(),
		"queue":   goldenQueueSpec(RoundRobin),
	} {
		all, err := SimulatePolicies(bg, spec, Policies())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, p := range Policies() {
			one := spec
			one.Policy = p
			res, err := Simulate(bg, one)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, p, err)
			}
			if got, want := goldenRender(all[i]), goldenRender(res); got != want {
				t.Errorf("%s/%s: lockstep run differs from Simulate\ngot:\n%s\nwant:\n%s", name, p, got, want)
			}
		}
	}
}

// TestSimulatePoliciesBudget: the policies of the shedding spec handle
// different event counts, so a budget between them stops some policies
// partway. The lockstep run must fail exactly when one of them would
// fail alone, with the same error.
func TestSimulatePoliciesBudget(t *testing.T) {
	spec := goldenShedSpec()
	all, err := SimulatePolicies(bg, spec, Policies())
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := all[0].Events, all[0].Events
	for _, r := range all[1:] {
		lo, hi = min(lo, r.Events), max(hi, r.Events)
	}
	if lo == hi {
		t.Fatalf("every policy handled %d events; the test needs a spread", lo)
	}
	for _, budget := range []int64{lo / 2, lo, (lo + hi) / 2, hi - 1, hi} {
		spec.MaxEvents = int(budget)
		var want error
		for _, p := range Policies() {
			one := spec
			one.Policy = p
			if _, err := Simulate(bg, one); err != nil && want == nil {
				want = err
			}
		}
		res, err := SimulatePolicies(bg, spec, Policies())
		switch {
		case want == nil && err != nil:
			t.Errorf("budget %d: lockstep failed (%v), every policy fits alone", budget, err)
		case want == nil && !reflect.DeepEqual(res, all):
			t.Errorf("budget %d: results differ from the unbounded run", budget)
		case want != nil && (err == nil || err.Error() != want.Error()):
			t.Errorf("budget %d: lockstep err = %v, want %v", budget, err, want)
		}
	}
}

// cancelAfter reports context.Canceled from its polls-th Err call on.
type cancelAfter struct {
	context.Context
	polls int
}

func (c *cancelAfter) Err() error {
	if c.polls--; c.polls < 0 {
		return context.Canceled
	}
	return nil
}

// TestSimulatePoliciesCancel cancels a three-policy run at every ctx
// poll of its event loops, each fleet's first through the last
// fleet's drain: every cut must return context.Canceled and no results,
// and a context that allows every poll the run makes changes nothing.
func TestSimulatePoliciesCancel(t *testing.T) {
	spec := defaultSpec(WeightedScore)
	spec.Duration = units.Second
	pricing := &cancelAfter{Context: bg, polls: 1 << 30}
	if _, err := newPricing(pricing, spec); err != nil {
		t.Fatal(err)
	}
	run := &cancelAfter{Context: bg, polls: 1 << 30}
	want, err := SimulatePolicies(run, spec, Policies())
	if err != nil {
		t.Fatal(err)
	}
	first, total := 1<<30-pricing.polls, 1<<30-run.polls
	if total <= first+len(Policies()) {
		t.Fatalf("%d polls in all, %d of them pricing: the event loops never polled", total, first)
	}
	t.Logf("%d polls, %d of them pricing", total, first)
	for cut := first; cut < total; cut++ {
		res, err := SimulatePolicies(&cancelAfter{Context: bg, polls: cut}, spec, Policies())
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("cut after %d of %d polls: err = %v, results returned %v; want context.Canceled and none",
				cut, total, err, res != nil)
		}
	}
	res, err := SimulatePolicies(&cancelAfter{Context: bg, polls: total}, spec, Policies())
	if err != nil || !reflect.DeepEqual(res, want) {
		t.Errorf("no cut: err = %v, results equal %v", err, reflect.DeepEqual(res, want))
	}
}
