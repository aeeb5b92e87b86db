package experiments

import (
	"reflect"
	"testing"
)

// TestSweepNames pins the servable sweep names: daemon jobs, fabric plans
// and the stream digest manifest address the catalog by them.
func TestSweepNames(t *testing.T) {
	want := []string{
		"ablation-capture", "ablation-guard", "ablation-sca", "ablation-timing", "counterfactual",
		"exp1", "exp2", "exp3", "exp3wall", "heuristic",
	}
	if got := SweepNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("SweepNames() = %v, want %v", got, want)
	}
}

// TestCatalogEntriesAreDistinct checks what the table's layout relies on:
// unique names and campaign ids, unique labels within a sweep (collation
// is by label), and seed blocks that never overlap.
func TestCatalogEntriesAreDistinct(t *testing.T) {
	names, ids, blocks := map[string]bool{}, map[string]bool{}, map[uint64]string{}
	for _, e := range catalog {
		if names[e.name] || ids[e.id] {
			t.Errorf("%s: name or id %q used twice", e.name, e.id)
		}
		names[e.name], ids[e.id] = true, true
		labels := map[string]bool{}
		for i, p := range e.points {
			if labels[p.Label] {
				t.Errorf("%s: label %q used twice", e.name, p.Label)
			}
			labels[p.Label] = true
			block := e.offset + uint64(i)*1000
			if other, ok := blocks[block]; ok {
				t.Errorf("%s point %d draws from the seed block of %s", e.name, i, other)
			}
			blocks[block] = e.name
		}
	}
}

func TestRunSweepRefusesCounterfactualAndUnknownNames(t *testing.T) {
	for _, name := range []string{"counterfactual", "exp4", ""} {
		if exp, err := RunSweep(name, Options{TrialsPerPoint: 1}); err == nil || exp != nil {
			t.Errorf("RunSweep(%q) = %v, %v; want an error", name, exp, err)
		}
	}
}

// TestRunSweepPointRange: a point range collates exactly the series those
// points have inside the full run, because every point's seed base is
// absolute.
func TestRunSweepPointRange(t *testing.T) {
	full, err := RunSweep("exp3", Options{TrialsPerPoint: 2})
	if err != nil {
		t.Fatal(err)
	}
	part, err := RunSweep("exp3", Options{TrialsPerPoint: 2, PointStart: 2, PointCount: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(part.Points, full.Points[2:5]) {
		t.Fatalf("points [2,5) differ from the full run's:\n%+v\n--- vs ---\n%+v", part.Points, full.Points[2:5])
	}
	if _, err := RunSweep("exp3", Options{TrialsPerPoint: 2, PointStart: 6}); err == nil {
		t.Fatal("a range beyond the last point ran")
	}
}
