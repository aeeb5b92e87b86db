package simtest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"injectable/internal/scenario"
)

// ShrinkResult is a minimised failing world.
type ShrinkResult struct {
	Seed uint64
	// Initial is the original failing run, Final the run of the minimal
	// world (still failing, by construction).
	Initial Result
	Final   Result
	// Minimal is the smallest world found that still fails;
	// Minimal.Entries() lists what matters.
	Minimal World
	// Runs counts world executions spent shrinking (including the first).
	Runs int
	// Fork marks a shrink under the fork-equivalence runner; the repro
	// command carries the -fork flag.
	Fork bool
}

// ReproCommand renders the one-line reproduction for the minimal world:
// it writes the minimal canonical spec to a file and reruns it at the
// seed with the knobs the world sets.
func (s ShrinkResult) ReproCommand() string {
	// Worlds come from Generate or from decoded JSON: every number is
	// finite, so the spec encodes.
	spec, _ := scenario.EncodeCanonical(s.Minimal.Spec)
	file := fmt.Sprintf("simtest-%d.json", s.Seed)
	cmd := fmt.Sprintf("echo '%s' > %s && go run ./cmd/simtest -seed %d -spec %s", spec, file, s.Seed, file)
	if s.Minimal.Jammer {
		cmd += " -jammer"
	}
	if s.Minimal.BreakWidening != 0 {
		cmd += fmt.Sprintf(" -break-widening %g", s.Minimal.BreakWidening)
	}
	if s.Fork {
		cmd += " -fork"
	}
	return cmd
}

// Shrink greedily minimises a failing world toward the default spec,
// {"version":1}, with both knobs off. Each candidate clears one knob or
// drops one entry from the JSON tree of the canonical spec — a whole
// sub-object, a field or a list element — which the spec reads as that
// entry's documented default. Candidates admission rejects are skipped; the
// first one that still fails is kept and the walk restarts from it. The
// result is 1-minimal: dropping any single remaining entry makes the
// failure disappear or the spec inadmissible.
//
// If the initial world does not fail, the result's Final is that passing
// run and Minimal equals the input — callers check Final.Failed().
func Shrink(seed uint64, w World) (ShrinkResult, error) {
	return shrinkWith(RunWorld, seed, w, false)
}

// ShrinkFork is Shrink under the fork-equivalence runner: the failure
// being minimised is "this world's fork replay diverges (or breaks an
// invariant)", and the repro command carries -fork.
func ShrinkFork(seed uint64, w World) (ShrinkResult, error) {
	return shrinkWith(RunWorldFork, seed, w, true)
}

// shrinkWith is the shrink loop over an arbitrary world runner.
func shrinkWith(run func(uint64, World) (Result, error), seed uint64, w World, fork bool) (ShrinkResult, error) {
	initial, err := run(seed, w)
	if err != nil {
		return ShrinkResult{}, err
	}
	out := ShrinkResult{Seed: seed, Initial: initial, Final: initial, Minimal: w, Runs: 1, Fork: fork}
	for improved := initial.Failed(); improved; {
		improved = false
		cands, err := smaller(out.Minimal)
		if err != nil {
			return out, err
		}
		for _, cand := range cands {
			r, err := run(seed, cand)
			out.Runs++
			if err == nil && r.Failed() {
				out.Minimal, out.Final, improved = cand, r, true
				break
			}
		}
	}
	return out, nil
}

// smaller lists the admissible worlds one step closer to the default than
// w: each knob cleared, then each entry of the canonical spec dropped,
// outermost entries first.
func smaller(w World) ([]World, error) {
	var out []World
	if w.Jammer {
		c := w
		c.Jammer = false
		out = append(out, c)
	}
	if w.BreakWidening != 0 {
		c := w
		c.BreakWidening = 0
		out = append(out, c)
	}
	tree, err := specTree(w.Spec)
	if err != nil {
		return nil, err
	}
	for _, t := range drops(tree) {
		b, err := json.Marshal(t)
		if err != nil {
			return nil, err
		}
		c := w
		if c.Spec, err = scenario.DecodeSpec(b); err != nil {
			continue
		}
		if scenario.Validate(c.Spec, 1, scenario.DefaultLimits) == nil {
			out = append(out, c)
		}
	}
	return out, nil
}

// Entries lists the world's non-default entries: every leaf of its
// canonical spec except the version, as path=value, then the knobs set.
func (w World) Entries() []string {
	var out []string
	tree, err := specTree(w.Spec)
	if err != nil {
		return []string{err.Error()}
	}
	delete(tree, "version")
	leaves("", tree, &out)
	if w.Jammer {
		out = append(out, "jammer")
	}
	if w.BreakWidening != 0 {
		out = append(out, fmt.Sprintf("break-widening=%g", w.BreakWidening))
	}
	return out
}

// specTree decodes the canonical spec into a generic JSON tree; numbers
// keep their exact text.
func specTree(s scenario.Spec) (map[string]any, error) {
	b, err := scenario.EncodeCanonical(s)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var tree map[string]any
	return tree, dec.Decode(&tree)
}

// drops returns one copy of the JSON tree v per entry that can be dropped
// from it: every member of an object and every element of an array, the
// outermost before those nested inside them.
func drops(v any) []any {
	var out []any
	switch t := v.(type) {
	case map[string]any:
		keys := sortedKeys(t)
		for _, k := range keys {
			c := maps.Clone(t)
			delete(c, k)
			out = append(out, c)
		}
		for _, k := range keys {
			for _, sub := range drops(t[k]) {
				c := maps.Clone(t)
				c[k] = sub
				out = append(out, c)
			}
		}
	case []any:
		for i := range t {
			out = append(out, slices.Delete(slices.Clone(t), i, i+1))
		}
		for i := range t {
			for _, sub := range drops(t[i]) {
				c := slices.Clone(t)
				c[i] = sub
				out = append(out, c)
			}
		}
	}
	return out
}

// leaves appends every scalar of the JSON tree v as path=value, in key
// order.
func leaves(path string, v any, out *[]string) {
	switch t := v.(type) {
	case map[string]any:
		for _, k := range sortedKeys(t) {
			leaves(strings.TrimPrefix(path+"."+k, "."), t[k], out)
		}
	case []any:
		for i, e := range t {
			leaves(fmt.Sprintf("%s[%d]", path, i), e, out)
		}
	default:
		*out = append(*out, fmt.Sprintf("%s=%v", path, t))
	}
}

func sortedKeys(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
