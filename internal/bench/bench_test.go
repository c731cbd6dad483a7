package bench

import (
	"strings"
	"testing"
)

// tinyRunner returns a Runner sized for unit tests.
func tinyRunner() *Runner {
	r := NewRunner(true)
	r.Trees = 800
	r.CDRs = 800
	r.Threads = []int{1, 2, 4}
	r.WideThreads = []int{1, 4, 12}
	r.BGwThreads = []int{1, 4}
	return r
}

func TestTable1(t *testing.T) {
	s := Table1()
	for _, want := range []string{"Table 1", "1", "3", "15", "63"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table1 output missing %q:\n%s", want, s)
		}
	}
}

func TestNames(t *testing.T) {
	names := Names()
	if len(names) != 18 || names[0] != "table1" || names[17] != "endtoend" {
		t.Fatalf("Names() = %v, want the 18 experiments in -exp all order", names)
	}
}

func TestUnknownExperiment(t *testing.T) {
	r := NewRunner(true)
	if _, err := r.Run("fig99"); err == nil {
		t.Fatal("expected error")
	}
}

func TestSpeedupFigure(t *testing.T) {
	r := tinyRunner()
	f, err := r.SpeedupFigure(2)
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != "Figure 5" {
		t.Errorf("ID = %q", f.ID)
	}
	if len(f.Series) != 3 {
		t.Fatalf("series = %d, want 3", len(f.Series))
	}
	for _, s := range f.Series {
		if len(s.Values) != len(r.Threads) {
			t.Fatalf("series %s has %d values, want %d", s.Name, len(s.Values), len(r.Threads))
		}
		for _, v := range s.Values {
			if v <= 0 {
				t.Fatalf("series %s has non-positive speedup", s.Name)
			}
		}
	}
	// Amplify must be the top series at every thread count (§5.1).
	amp := f.Series[2]
	for i := range r.Threads {
		for _, other := range f.Series[:2] {
			if amp.Values[i] < 0.98*other.Values[i] {
				t.Errorf("amplify %.2f below %s %.2f at %d threads",
					amp.Values[i], other.Name, other.Values[i], r.Threads[i])
			}
		}
	}
	out := f.Render()
	for _, want := range []string{"Figure 5", "ptmalloc", "hoard", "amplify", "threads"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestScaleupFigureNormalized(t *testing.T) {
	r := tinyRunner()
	f, err := r.ScaleupFigure(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range f.Series {
		if s.Values[0] != 1.0 {
			t.Errorf("series %s not normalized: first value %.3f", s.Name, s.Values[0])
		}
	}
}

func TestScaleupReusesMemoizedRuns(t *testing.T) {
	r := tinyRunner()
	if _, err := r.SpeedupFigure(2); err != nil {
		t.Fatal(err)
	}
	before := r.cells.len()
	if _, err := r.ScaleupFigure(2); err != nil {
		t.Fatal(err)
	}
	if r.cells.len() != before {
		t.Errorf("scaleup re-ran workloads: memo grew %d -> %d", before, r.cells.len())
	}
}

func TestHandmadeFigure(t *testing.T) {
	r := tinyRunner()
	f, err := r.HandmadeFigure()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 4 {
		t.Fatalf("series = %d, want 4 (incl. handmade)", len(f.Series))
	}
	last := len(f.X) - 1
	byName := map[string][]float64{}
	for _, s := range f.Series {
		byName[s.Name] = s.Values
	}
	if byName["handmade"][last] < byName["amplify"][last] {
		t.Error("handmade should bound amplify from above")
	}
	if byName["hoard"][last] > byName["amplify"][last] {
		t.Error("hoard should fall below amplify past the processor count")
	}
}

func TestBGwFigure(t *testing.T) {
	r := tinyRunner()
	f, err := r.BGwFigure()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string][]float64{}
	for _, s := range f.Series {
		byName[s.Name] = s.Values
	}
	last := len(f.X) - 1
	if byName["smartheap+amplify"][last] <= byName["smartheap"][last] {
		t.Error("smartheap+amplify should beat smartheap")
	}
	if byName["amplify alone"][last] > 0.5*byName["smartheap"][last] {
		t.Error("amplify alone should not scale like smartheap")
	}
	if len(f.Notes) == 0 || !strings.Contains(f.Notes[0], "%") {
		t.Error("missing gain note")
	}
}

func TestClaimsReport(t *testing.T) {
	r := tinyRunner()
	s, err := r.Claims()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"max Amplify advantage", "failed lock attempts", "heap allocations", "Figure 4 drop", "footprint", "library allocation share", "shadow realloc reuse"} {
		if !strings.Contains(s, want) {
			t.Errorf("claims report missing %q:\n%s", want, s)
		}
	}
}

func TestRunAllExperiments(t *testing.T) {
	r := tinyRunner()
	for _, name := range Names() {
		out, err := r.Run(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(out) == 0 {
			t.Fatalf("%s: empty output", name)
		}
	}
}
