package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"amplify/internal/workload"
)

// seededReports fabricates a baseline/current pair whose only delta is
// a 20% makespan regression on the quick-mode contend/serial/p8/
// threads64 cell — the current side carries the cell's REAL simulated
// makespan, so the explain probe reproduces it exactly.
func seededReports(t *testing.T) (*Report, *Report, int64) {
	t.Helper()
	res, err := workload.RunChurn("serial", workload.ChurnConfig{
		Threads: 64, OpsPerThread: contendOpsQuick, Size: contendSize, Processors: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	const cell = "contend/serial/p8/threads64"
	old := &Report{
		Schema:    ReportSchema,
		Quick:     true,
		Makespans: map[string]int64{cell: res.Makespan * 8 / 10},
		Metrics:   map[string]int64{"sim.lock.wait_cycles": 1000, "sim.lock.contended": 10},
	}
	cur := &Report{
		Schema:    ReportSchema,
		Quick:     true,
		Makespans: map[string]int64{cell: res.Makespan},
		Metrics:   map[string]int64{"sim.lock.wait_cycles": 9000, "sim.lock.contended": 80},
	}
	return old, cur, res.Makespan
}

func TestExplainNamesTheLock(t *testing.T) {
	old, cur, makespan := seededReports(t)
	ex, err := Explain(old, cur, ExplainOptions{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Schema != ExplainSchema {
		t.Errorf("schema = %q", ex.Schema)
	}
	if len(ex.Cells) != 1 {
		t.Fatalf("cells = %+v", ex.Cells)
	}
	c := ex.Cells[0]
	if c.Cell != "contend/serial/p8/threads64" || c.Metric != "makespan" || c.New != makespan {
		t.Errorf("cell = %+v", c)
	}
	if c.Note != "" {
		t.Errorf("unexpected note (probe should reproduce the report makespan): %q", c.Note)
	}
	// The serial allocator's global mutex must appear in the top-3
	// attributions: 64 threads hammering one lock on 8 processors is
	// wait-dominated by construction.
	found := false
	for i, a := range c.Attributions {
		if i >= 3 {
			break
		}
		if a.Kind == "lock" && a.Name == "serial.global" {
			found = true
			if a.ShareBP <= 0 || a.Value <= 0 {
				t.Errorf("serial.global attribution carries no weight: %+v", a)
			}
		}
	}
	if !found {
		t.Errorf("serial.global not in top-3 attributions: %+v", c.Attributions)
	}
	// The report-level corroboration ranks the wait-cycle counter on top.
	if len(ex.Metrics) == 0 || ex.Metrics[0].Key != "sim.lock.wait_cycles" {
		t.Errorf("metric deltas = %+v", ex.Metrics)
	}
	// The rendered report names the lock too.
	text := ex.Format()
	if !strings.Contains(text, "serial.global") || !strings.Contains(text, "makespan contend/serial/p8/threads64") {
		t.Errorf("Format misses the culprit:\n%s", text)
	}
}

// TestExplainDeterministicAcrossJobs: the attribution report must be
// byte-identical whether probes run sequentially or on 8 host workers.
func TestExplainDeterministicAcrossJobs(t *testing.T) {
	old, cur, _ := seededReports(t)
	// A second regressed cell makes the probe pool actually parallel.
	old.Makespans["tree/ptmalloc/depth1/threads2/procs8"] = 1
	cur.Makespans["tree/ptmalloc/depth1/threads2/procs8"] = 100

	var texts [2]string
	var jsons [2][]byte
	for i, jobs := range []int{1, 8} {
		ex, err := Explain(old, cur, ExplainOptions{Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		texts[i] = ex.Format()
		j, err := json.MarshalIndent(ex, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		jsons[i] = j
	}
	if texts[0] != texts[1] {
		t.Errorf("text report differs between -j1 and -j8:\n--- j1 ---\n%s--- j8 ---\n%s", texts[0], texts[1])
	}
	if !bytes.Equal(jsons[0], jsons[1]) {
		t.Error("JSON report differs between -j1 and -j8")
	}
}

func TestExplainCleanAndUnknownCells(t *testing.T) {
	// Identical reports: nothing to explain, no probes run.
	same := &Report{Schema: ReportSchema, Quick: true,
		Makespans: map[string]int64{"contend/serial/p8/threads64": 500}}
	ex, err := Explain(same, same, ExplainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Cells) != 0 {
		t.Errorf("clean diff produced cells: %+v", ex.Cells)
	}
	if !strings.Contains(ex.Format(), "no regressions to explain") {
		t.Errorf("clean Format:\n%s", ex.Format())
	}

	// A key no experiment enumerates is noted, never an error.
	old := &Report{Schema: ReportSchema, Quick: true,
		Makespans: map[string]int64{"bgw/serial/amplifyfalse/objectsfalse/threads3": 100}}
	cur := &Report{Schema: ReportSchema, Quick: true,
		Makespans: map[string]int64{"bgw/serial/amplifyfalse/objectsfalse/threads3": 200}}
	ex, err = Explain(old, cur, ExplainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Cells) != 1 || !strings.Contains(ex.Cells[0].Note, "no profiled re-run") {
		t.Errorf("unenumerated cell explanation = %+v", ex.Cells)
	}

	// Foreign schemas are an error, not an empty explanation.
	if _, err := Explain(&Report{Schema: "nonsense/1"}, cur, ExplainOptions{}); err == nil {
		t.Error("foreign schema accepted")
	}
}

// TestExplainFootprint: a fabricated footprint regression on a real
// cell gets heap-geometry attributions against the new footprint.
func TestExplainFootprint(t *testing.T) {
	res, err := workload.RunChurn("serial", workload.ChurnConfig{
		Threads: 8, OpsPerThread: contendOpsQuick, Size: contendSize, Processors: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	const cell = "contend/serial/p8/threads8"
	old := &Report{Schema: ReportSchema, Quick: true,
		Makespans: map[string]int64{cell: res.Makespan},
		Heap:      map[string]HeapCell{cell: {Footprint: res.Footprint / 2, PeakBytes: 1}}}
	cur := &Report{Schema: ReportSchema, Quick: true,
		Makespans: map[string]int64{cell: res.Makespan},
		Heap:      map[string]HeapCell{cell: {Footprint: res.Footprint, PeakBytes: 1}}}
	ex, err := Explain(old, cur, ExplainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Cells) != 1 || ex.Cells[0].Metric != "footprint" {
		t.Fatalf("cells = %+v", ex.Cells)
	}
	if len(ex.Cells[0].Attributions) == 0 {
		t.Fatal("footprint regression got no attributions")
	}
	for _, a := range ex.Cells[0].Attributions {
		if a.Kind != "heap" && a.Kind != "site" {
			t.Errorf("unexpected attribution kind for footprint: %+v", a)
		}
	}
}

// TestExplainSelectsWorstCells: with MaxCells 1 only the worst cell is
// probed; the other regression survives with a note instead of data.
func TestExplainSelectsWorstCells(t *testing.T) {
	old := &Report{Schema: ReportSchema, Quick: true, Makespans: map[string]int64{
		"bgw/a/amplifyfalse/objectsfalse/threads1": 100,
		"bgw/b/amplifyfalse/objectsfalse/threads1": 100,
	}}
	cur := &Report{Schema: ReportSchema, Quick: true, Makespans: map[string]int64{
		"bgw/a/amplifyfalse/objectsfalse/threads1": 300, // +200%
		"bgw/b/amplifyfalse/objectsfalse/threads1": 150, // +50%
	}}
	ex, err := Explain(old, cur, ExplainOptions{MaxCells: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Cells) != 2 {
		t.Fatalf("cells = %+v", ex.Cells)
	}
	if ex.Cells[0].Cell != "bgw/a/amplifyfalse/objectsfalse/threads1" || ex.Cells[0].SeverityBP != 20000 {
		t.Errorf("worst-first ordering broken: %+v", ex.Cells[0])
	}
	if !strings.Contains(ex.Cells[1].Note, "beyond MaxCells") {
		t.Errorf("dropped cell not noted: %+v", ex.Cells[1])
	}
	found := false
	for _, n := range ex.Notes {
		if strings.Contains(n, "were not re-run") {
			found = true
		}
	}
	if !found {
		t.Errorf("no coverage note about the dropped cell: %v", ex.Notes)
	}
}

// TestExplainEveryFamily seeds a makespan and footprint regression on
// one quick-grid cell of every family: each probe must reproduce the
// report's makespan and attribute both regressions.
func TestExplainEveryFamily(t *testing.T) {
	if testing.Short() {
		t.Skip("re-runs one quick cell per family")
	}
	cells := []string{
		"tree/serial/depth3/threads8/procs8",
		"tree-capped/amplify/depth3/threads8/max1",
		"bgw/smartheap/amplifytrue/objectsfalse/threads2",
		"bgw-shadowcap/smartheap/threads4/cap64",
		"pipe/smartheap/amplifytrue/stealtrue/workers4",
		"contend/lfalloc/p8/threads64",
		"replay/handoff/hoard",
		"e2e/ptmalloc/threads2",
		"escape/msgring/classic",
		"scale/amplify/p8/threads10000",
	}
	cur := loadBaseline(t)
	ex, err := Explain(deflated(t, cur, cells), cur, ExplainOptions{MaxCells: len(cells)})
	if err != nil {
		t.Fatal(err)
	}
	explained := map[string]int{}
	for _, c := range ex.Cells {
		if c.Note != "" {
			t.Errorf("%s %s: note %q", c.Metric, c.Cell, c.Note)
		}
		if len(c.Attributions) == 0 {
			t.Errorf("%s %s: no attributions", c.Metric, c.Cell)
		}
		explained[c.Cell]++
	}
	for _, c := range cells {
		if explained[c] != 2 {
			t.Errorf("%s: %d regressions explained, want makespan and footprint", c, explained[c])
		}
	}
}
