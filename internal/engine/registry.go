package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"
)

// Experiment is one registered table/figure reproduction.
type Experiment struct {
	ID      string                                      `json:"id"`
	Title   string                                      `json:"title"`
	Section string                                      `json:"section,omitempty"` // paper reference, e.g. "§VI.C.2 / Fig. 10"
	Deps    []string                                    `json:"deps,omitempty"`    // resource names that must be prepared first
	Run     func(ctx context.Context) (Artifact, error) `json:"-"`
}

// Resource is a shared prerequisite of one or more experiments — a
// grid's scaling fit, the calibrated queuing curve. Resources depend on
// nothing, so the graph has two levels: every resource is ready at the
// start of a run, and experiments wait on the resources they declare.
type Resource struct {
	Name    string
	Prepare func(ctx context.Context) error
}

// Registry holds the experiment catalog and its shared resources.
// Registration order is preserved: for experiments it is the canonical
// presentation order (-list, the results index, the manifest), and for
// resources the order Run starts them.
type Registry struct {
	mu          sync.Mutex
	order       []string
	experiments map[string]Experiment
	resOrder    []string
	resources   map[string]Resource
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		experiments: map[string]Experiment{},
		resources:   map[string]Resource{},
	}
}

// Register adds an experiment. IDs must be unique and Run non-nil.
func (r *Registry) Register(e Experiment) error {
	if e.ID == "" || e.Run == nil {
		return fmt.Errorf("engine: experiment needs an ID and a Run function")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.experiments[e.ID]; dup {
		return fmt.Errorf("engine: duplicate experiment id %q", e.ID)
	}
	r.experiments[e.ID] = e
	r.order = append(r.order, e.ID)
	return nil
}

// MustRegister is Register panicking on error; for static catalogs.
func (r *Registry) MustRegister(e Experiment) {
	if err := r.Register(e); err != nil {
		panic(err)
	}
}

// RegisterResource adds a shared dependency node.
func (r *Registry) RegisterResource(res Resource) error {
	if res.Name == "" || res.Prepare == nil {
		return fmt.Errorf("engine: resource needs a Name and a Prepare function")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.resources[res.Name]; dup {
		return fmt.Errorf("engine: duplicate resource %q", res.Name)
	}
	r.resources[res.Name] = res
	r.resOrder = append(r.resOrder, res.Name)
	return nil
}

// MustRegisterResource is RegisterResource panicking on error.
func (r *Registry) MustRegisterResource(res Resource) {
	if err := r.RegisterResource(res); err != nil {
		panic(err)
	}
}

// IDs returns the experiment ids in registration order.
func (r *Registry) IDs() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.order...)
}

// Get looks up one experiment.
func (r *Registry) Get(id string) (Experiment, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.experiments[id]
	return e, ok
}

// Experiments returns every experiment in registration order.
func (r *Registry) Experiments() []Experiment {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Experiment, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, r.experiments[id])
	}
	return out
}

// resourceNames returns the resource names in registration order.
func (r *Registry) resourceNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.resOrder...)
}

// Resource looks up one resource.
func (r *Registry) Resource(name string) (Resource, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	res, ok := r.resources[name]
	return res, ok
}

// Resolve maps requested ids (whitespace tolerated, empty entries
// ignored) to experiments in registration order. nil or empty selects
// the whole catalog. Unknown ids are an error that names the valid ones.
func (r *Registry) Resolve(ids []string) ([]Experiment, error) {
	want := map[string]bool{}
	var unknown []string
	for _, id := range ids {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		if _, ok := r.Get(id); !ok {
			unknown = append(unknown, id)
			continue
		}
		want[id] = true
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("unknown experiment id(s): %s\nvalid ids: %s",
			strings.Join(unknown, ", "), strings.Join(r.IDs(), ", "))
	}
	all := r.Experiments()
	if len(want) == 0 {
		return all, nil
	}
	var out []Experiment
	for _, e := range all {
		if want[e.ID] {
			out = append(out, e)
		}
	}
	return out, nil
}

// Validate checks that every declared dependency names a registered
// resource.
func (r *Registry) Validate() error {
	for _, e := range r.Experiments() {
		for _, d := range e.Deps {
			if _, ok := r.Resource(d); !ok {
				return fmt.Errorf("engine: experiment %q depends on unknown resource %q", e.ID, d)
			}
		}
	}
	return nil
}
