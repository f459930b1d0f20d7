package engine

import (
	"context"
	"strings"
	"testing"
)

func noopRun(ctx context.Context) (Artifact, error) { return Artifact{ID: "x"}, nil }

func TestRegisterRejectsBadAndDuplicate(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(Experiment{ID: "", Run: noopRun}); err == nil {
		t.Fatal("want error for empty id")
	}
	if err := r.Register(Experiment{ID: "a"}); err == nil {
		t.Fatal("want error for nil Run")
	}
	if err := r.Register(Experiment{ID: "a", Run: noopRun}); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(Experiment{ID: "a", Run: noopRun}); err == nil {
		t.Fatal("want error for duplicate id")
	}
	if err := r.RegisterResource(Resource{Name: "r", Prepare: func(context.Context) error { return nil }}); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterResource(Resource{Name: "r", Prepare: func(context.Context) error { return nil }}); err == nil {
		t.Fatal("want error for duplicate resource")
	}
}

func TestRegistrationOrderPreserved(t *testing.T) {
	r := NewRegistry()
	for _, id := range []string{"z", "a", "m"} {
		r.MustRegister(Experiment{ID: id, Run: noopRun})
	}
	ids := r.IDs()
	if len(ids) != 3 || ids[0] != "z" || ids[1] != "a" || ids[2] != "m" {
		t.Fatalf("ids = %v, want registration order", ids)
	}
}

func TestResolve(t *testing.T) {
	r := NewRegistry()
	for _, id := range []string{"fig1", "fig2", "table2"} {
		r.MustRegister(Experiment{ID: id, Run: noopRun})
	}

	// Empty selection = whole catalog in registration order.
	all, err := r.Resolve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 || all[0].ID != "fig1" {
		t.Fatalf("resolve nil = %d entries", len(all))
	}

	// Whitespace and empty entries tolerated; output stays in
	// registration order regardless of request order.
	got, err := r.Resolve([]string{" table2", "", "fig1 "})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != "fig1" || got[1].ID != "table2" {
		t.Fatalf("resolve = %v", got)
	}

	// Unknown ids fail, naming both the bad ids and the valid catalog.
	_, err = r.Resolve([]string{"fig1", "nope", "alsonope"})
	if err == nil {
		t.Fatal("want error")
	}
	for _, want := range []string{"nope", "alsonope", "valid ids", "fig1", "table2"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err, want)
		}
	}
}

func TestValidateUnknownDep(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(Experiment{ID: "e", Deps: []string{"missing"}, Run: noopRun})
	if err := r.Validate(); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("err = %v, want unknown-resource error", err)
	}
}
