package bench

import (
	"strings"
	"testing"
)

func TestCSVExport(t *testing.T) {
	f := &Figure{
		ID: "Figure X", Title: "t", XLabel: "threads",
		X: []int{1, 2, 4},
		Series: []Series{
			{Name: "a", Values: []float64{1, 2, 3}},
			{Name: "b", Values: []float64{1.5, 2.5, 3.5}},
		},
	}
	csv := f.CSV()
	want := "series,1,2,4\na,1.0000,2.0000,3.0000\nb,1.5000,2.5000,3.5000\n"
	if csv != want {
		t.Fatalf("CSV = %q, want %q", csv, want)
	}
}

func TestFigureLookup(t *testing.T) {
	r := tinyRunner()
	f, err := r.Figure("fig7")
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != "Figure 7" {
		t.Errorf("ID = %q", f.ID)
	}
	if _, err := r.Figure("claims"); err == nil {
		t.Error("claims should have no figure data")
	}
}

func TestChartRendering(t *testing.T) {
	f := &Figure{
		ID: "Figure Y", Title: "chart", XLabel: "threads",
		X: []int{1, 2, 4, 8},
		Series: []Series{
			{Name: "up", Values: []float64{1, 2, 4, 8}},
			{Name: "flat", Values: []float64{1, 1, 1, 1}},
		},
	}
	out := f.Chart(10)
	for _, want := range []string{"Figure Y", "* up", "o flat", "(threads)", "8.0"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q:\n%s", want, out)
		}
	}
	// The rising series' glyph must appear on the top row; the flat
	// series' glyph must not.
	lines := strings.Split(out, "\n")
	top := lines[1]
	if !strings.Contains(top, "*") {
		t.Errorf("top row missing rising series: %q", top)
	}
	bottomArea := strings.Join(lines[len(lines)-8:], "\n")
	if !strings.Contains(bottomArea, "o") {
		t.Errorf("flat series not near the bottom:\n%s", out)
	}
}

func TestChartDegenerate(t *testing.T) {
	f := &Figure{ID: "Z", Title: "empty"}
	if out := f.Chart(5); out == "" {
		t.Fatal("empty chart output")
	}
}

func TestMemoryExperiment(t *testing.T) {
	r := tinyRunner()
	out, err := r.Memory()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Memory consumption", "amplify", "pool population cap", "shadow cap", "guarantee"} {
		if !strings.Contains(out, want) {
			t.Errorf("memory report missing %q:\n%s", want, out)
		}
	}
}

func TestEndToEndExperiment(t *testing.T) {
	r := tinyRunner()
	out, err := r.Run("endtoend")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"End-to-end", "serial", "ptmalloc", "hoard", "amplify", "heap allocations"} {
		if !strings.Contains(out, want) {
			t.Errorf("endtoend missing %q:\n%s", want, out)
		}
	}
}

func TestTreeSourceShape(t *testing.T) {
	src := treeSource(3, 10, 3)
	if got := strings.Count(src, "spawn churn"); got != 3 {
		t.Errorf("spawns = %d, want 3", got)
	}
	if !strings.Contains(src, "class Node") || !strings.Contains(src, "join;") {
		t.Error("malformed tree source")
	}
}

func TestSensitivityExperiment(t *testing.T) {
	r := tinyRunner()
	out, err := r.Sensitivity()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Processor-count sensitivity", "amplify advantage", "serial"} {
		if !strings.Contains(out, want) {
			t.Errorf("sensitivity missing %q:\n%s", want, out)
		}
	}
}
