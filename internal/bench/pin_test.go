package bench

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-bench-golden", false, "rewrite testdata/bench goldens instead of checking them")

// allExperiments is `amplifybench -exp all`, in its order.
var allExperiments = []string{"table1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
	"claims", "memory", "pipeline", "sensitivity", "escape", "scale", "contend", "replay", "endtoend"}

var (
	baselinePath = filepath.Join("..", "..", "BENCH_baseline.json")
	goldenDir    = filepath.Join("..", "..", "testdata", "bench")
)

// checkGolden compares got with the named file under testdata/bench,
// or rewrites the file with -update-bench-golden.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join(goldenDir, name)
	if *updateGolden {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the golden:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// maskHostFields drops the host measurements of a decoded report:
// everything else in it is simulated and must not move.
func maskHostFields(rep map[string]any) {
	for _, k := range []string{"wall_seconds", "jobs", "host_cpus"} {
		delete(rep, k)
	}
	for _, e := range rep["experiments"].([]any) {
		delete(e.(map[string]any), "wall_seconds")
		delete(e.(map[string]any), "engine_speedup")
	}
}

func decodeReport(t *testing.T, raw []byte) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	maskHostFields(m)
	return m
}

// maskScaleHost cuts the scale table's host-wall and Mev/s columns,
// the only host-dependent numbers in the rendered experiments.
func maskScaleHost(text string) string {
	lines := strings.Split(text, "\n")
	for i, l := range lines {
		if f := strings.Fields(l); len(f) == 6 && strings.HasSuffix(f[4], "s") {
			lines[i] = strings.TrimRight(l[:strings.LastIndex(l, f[4])], " ")
		}
	}
	return strings.Join(lines, "\n")
}

// TestQuickGridPinned regenerates the full -quick grid at -j 1 and -j
// 4 and checks the whole report against BENCH_baseline.json (host
// fields masked) and the rendered text of every experiment against
// testdata/bench/quick.txt.
func TestQuickGridPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick grid twice")
	}
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		t.Fatal(err)
	}
	want := decodeReport(t, raw)
	for _, jobs := range []int{1, 4} {
		r := NewRunner(true)
		r.Jobs = jobs
		if err := r.Precompute(allExperiments); err != nil {
			t.Fatal(err)
		}
		rep, err := r.Report(allExperiments)
		if err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if got := decodeReport(t, out); !reflect.DeepEqual(got, want) {
			g, _ := json.MarshalIndent(got, "", "  ")
			w, _ := json.MarshalIndent(want, "", "  ")
			t.Fatalf("-j %d report differs from %s:\n--- got ---\n%s\n--- want ---\n%s", jobs, baselinePath, g, w)
		}
		var text []string
		for _, name := range allExperiments {
			s, err := r.Run(name)
			if err != nil {
				t.Fatal(err)
			}
			if name == "scale" {
				s = maskScaleHost(s)
			}
			text = append(text, s)
		}
		checkGolden(t, "quick.txt", strings.Join(text, "\n"))
	}
}

// deflated returns a copy of rep in which each named cell's makespan
// and footprint are 20% lower: rep then reads as a regression of those
// cells against the copy.
func deflated(t *testing.T, rep *Report, cells []string) *Report {
	t.Helper()
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var old Report
	if err := json.Unmarshal(raw, &old); err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		ms, ok := old.Makespans[c]
		h, hok := old.Heap[c]
		if !ok || !hok {
			t.Fatalf("cell %s not in the report", c)
		}
		old.Makespans[c] = ms * 8 / 10
		h.Footprint = h.Footprint * 8 / 10
		old.Heap[c] = h
	}
	return &old
}

func loadBaseline(t *testing.T) *Report {
	t.Helper()
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	return &rep
}

// TestExplainGolden pins the -explain report for one seeded makespan
// and footprint regression in each of the tree, contend, replay, e2e
// and escape families, at -j 1 and -j 8.
func TestExplainGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("re-runs five quick cells twice")
	}
	cur := loadBaseline(t)
	old := deflated(t, cur, []string{
		"tree/amplify/depth3/threads8/procs8",
		"contend/serial/p8/threads64",
		"replay/fragstorm/ptmalloc",
		"e2e/amplify/threads4",
		"escape/treechurn/escape",
	})
	var texts []string
	for _, jobs := range []int{1, 8} {
		ex, err := Explain(old, cur, ExplainOptions{Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		texts = append(texts, ex.Format())
	}
	if texts[0] != texts[1] {
		t.Errorf("explain differs between -j 1 and -j 8:\n--- j1 ---\n%s--- j8 ---\n%s", texts[0], texts[1])
	}
	checkGolden(t, "explain.txt", texts[0])
}
