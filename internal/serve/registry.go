package serve

import (
	"fmt"
	"sort"

	"injectable/internal/campaign"
	"injectable/internal/experiments"
	"injectable/internal/scenario"
)

// Entry is one servable campaign kind.
type Entry struct {
	// Name is the experiment name jobs refer to.
	Name string
	// Targets lists the allowed Target values; empty means the entry
	// takes no target.
	Targets []string
	// Build expands a validated, normalized job spec into the campaign to
	// run. The returned spec's trial functions must be deterministic in
	// the trial seed — that is what makes result streams cacheable.
	Build func(spec JobSpec) (*campaign.Spec, error)
}

// Registry maps experiment names to entries. Construct with NewRegistry
// and Register; the zero value is empty but usable.
type Registry struct {
	entries map[string]Entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{entries: map[string]Entry{}} }

// Register adds (or replaces) an entry.
func (r *Registry) Register(e Entry) {
	if r.entries == nil {
		r.entries = map[string]Entry{}
	}
	r.entries[e.Name] = e
}

// Names lists registered experiments in sorted order.
func (r *Registry) Names() []string {
	names := make([]string, 0, len(r.entries))
	for name := range r.entries {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Lookup returns the entry for a name.
func (r *Registry) Lookup(name string) (Entry, bool) {
	e, ok := r.entries[name]
	return e, ok
}

// Admission is a job spec that passed admission: normalized, checked
// against the registry and, for an inline scenario, decoded, validated
// against the admission limits and rewritten to its canonical bytes, each
// exactly once. Compile expands it into its campaign: a daemon compiles
// only a miss (an equal key that hits or joins was admitted before), the
// fabric planner once per campaign.
type Admission struct {
	// Spec is the normalized spec. An inline scenario carries its
	// canonical encoding, so Spec.Key() is the dedup key on every node.
	Spec JobSpec
	// scen is the admitted inline scenario; build the catalog entry's
	// Build otherwise.
	scen  *scenario.Admitted
	build func(JobSpec) (*campaign.Spec, error)
}

// Compile expands the admission into its campaign: closure construction,
// no simulation. It is also where a point range or warmup the experiment
// cannot take is rejected.
func (a Admission) Compile() (*campaign.Spec, error) {
	if a.scen != nil {
		return a.scen.Compile(specOptions(a.Spec))
	}
	return a.build(a.Spec)
}

// Admit checks a spec against the decoder-level bounds and the registry:
// the experiment must exist and the target must be legal for it.
// Inline-scenario specs bypass the entry table — the scenario compiler is
// their registry — which is also what lets the fabric planner shard DSL
// sweeps with no code of its own: a scenario JobSpec admits, compiles and
// point-slices like any catalog entry.
func (r *Registry) Admit(spec JobSpec) (Admission, error) {
	if len(spec.Scenario) > 0 {
		return admitScenario(spec)
	}
	if err := spec.check(); err != nil {
		return Admission{}, err
	}
	e, ok := r.entries[spec.Experiment]
	if !ok {
		return Admission{}, fmt.Errorf("serve: unknown experiment %q (available: %v)",
			spec.Experiment, r.Names())
	}
	if len(e.Targets) == 0 {
		if spec.Target != "" {
			return Admission{}, fmt.Errorf("serve: experiment %q takes no target", spec.Experiment)
		}
	} else {
		ok := false
		for _, t := range e.Targets {
			if t == spec.Target {
				ok = true
				break
			}
		}
		if !ok {
			return Admission{}, fmt.Errorf("serve: experiment %q: unknown target %q (want one of %v)",
				spec.Experiment, spec.Target, e.Targets)
		}
	}
	return Admission{Spec: spec.Normalize(), build: e.Build}, nil
}

// Validate admits and compiles the spec, so that a point range or warmup
// the experiment cannot take is rejected too, and returns the normalized
// spec.
func (r *Registry) Validate(spec JobSpec) (JobSpec, error) {
	a, err := r.Admit(spec)
	if err == nil {
		_, err = a.Compile()
	}
	if err != nil {
		return JobSpec{}, err
	}
	return a.Spec, nil
}

// Build admits the spec and expands it into its campaign.
func (r *Registry) Build(spec JobSpec) (*campaign.Spec, error) {
	a, err := r.Admit(spec)
	if err != nil {
		return nil, err
	}
	return a.Compile()
}

// DefaultRegistry exposes every servable study in internal/experiments:
// the Fig. 9 sweeps, the design ablations, the heuristic validation and
// the four attack scenarios (plus the §IX keystrokes extension). Daemon
// jobs built from it run the exact campaigns the CLI sweeps run.
func DefaultRegistry() *Registry {
	r := NewRegistry()
	for _, name := range experiments.SweepNames() {
		name := name
		r.Register(Entry{
			Name: name,
			Build: func(spec JobSpec) (*campaign.Spec, error) {
				return experiments.SweepSpec(name, specOptions(spec))
			},
		})
	}
	for _, name := range experiments.ScenarioNames() {
		name := name
		e := Entry{
			Name: name,
			Build: func(spec JobSpec) (*campaign.Spec, error) {
				return experiments.ScenarioSpec(name, spec.Target, specOptions(spec))
			},
		}
		if name != "keystrokes" {
			e.Targets = experiments.ScenarioTargets()
		}
		r.Register(e)
	}
	return r
}

// specOptions maps the normalized wire spec onto experiment options.
func specOptions(spec JobSpec) experiments.Options {
	return experiments.Options{
		TrialsPerPoint: spec.Trials,
		SeedBase:       spec.SeedBase,
		PointStart:     spec.PointStart,
		PointCount:     spec.PointCount,
		Warmup:         spec.Warmup,
	}
}
