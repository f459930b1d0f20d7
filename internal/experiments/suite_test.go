package experiments

import (
	"sync"
	"testing"

	"repro/internal/model"
)

func TestFitConcurrentConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel scaling fits")
	}
	// Two cheap workloads fitted from concurrent goroutines must match
	// serial fits on a fresh suite (fits are deterministic and computed
	// exactly once).
	names := []string{"raytrace", "interp"}
	par := NewSuite(Quick())
	pfs := make([]model.Fit, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for i, n := range names {
		wg.Add(1)
		go func(i int, n string) {
			defer wg.Done()
			pfs[i], errs[i] = par.Fit(bg, n)
		}(i, n)
	}
	wg.Wait()
	ser := NewSuite(Quick())
	for i, n := range names {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		sf, err := ser.Fit(bg, n)
		if err != nil {
			t.Fatal(err)
		}
		if pfs[i].Params != sf.Params || pfs[i].R2 != sf.R2 {
			t.Fatalf("%s: parallel fit diverged from serial", n)
		}
	}
}

func TestFitUnknownWorkload(t *testing.T) {
	if _, err := NewSuite(Quick()).Fit(bg, "no-such-workload"); err == nil {
		t.Fatal("want error for unknown workload")
	}
}
