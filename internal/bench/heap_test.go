package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExportHeapArtifacts checks every heap artifact exists, parses,
// and tells the paper's memory story: the amplified run retains pool
// structures the serial run does not, and timelines advance in virtual
// time.
func TestExportHeapArtifacts(t *testing.T) {
	r := microRunner()
	// heap-summary.json summarizes the experiment cells computed so
	// far (like ExportTraces' metrics.json); warm one family first, as
	// the CLI does before exporting.
	if err := r.Precompute([]string{"fig4"}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := r.ExportHeap(dir); err != nil {
		t.Fatal(err)
	}
	read := func(name string) []byte {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	for _, strategy := range []string{"serial", "ptmalloc", "amplify"} {
		jl := read("heap-timeline-" + strategy + ".jsonl")
		lines := bytes.Split(bytes.TrimSpace(jl), []byte("\n"))
		if len(lines) < 2 {
			t.Fatalf("%s timeline has %d samples, want several", strategy, len(lines))
		}
		var prev int64 = -1
		for _, line := range lines {
			if !json.Valid(line) {
				t.Fatalf("invalid JSONL line: %s", line)
			}
			var s struct {
				Now       int64 `json:"now"`
				Footprint int64 `json:"footprint"`
			}
			if err := json.Unmarshal(line, &s); err != nil {
				t.Fatal(err)
			}
			if s.Now < prev {
				t.Fatalf("%s timeline goes backwards: %d after %d", strategy, s.Now, prev)
			}
			prev = s.Now
		}

		csv := read("heap-timeline-" + strategy + ".csv")
		header := string(bytes.SplitN(csv, []byte("\n"), 2)[0])
		for _, col := range []string{"now", "footprint", "int_frag_bp", "ext_frag_bp", "pool_retained"} {
			if !strings.Contains(header, col) {
				t.Errorf("%s CSV header missing %s: %s", strategy, col, header)
			}
		}
		if got := bytes.Count(csv, []byte("\n")); got != len(lines)+1 {
			t.Errorf("%s: CSV rows %d != JSONL rows %d + header", strategy, got, len(lines))
		}
	}

	// Amplify retains structures in pools; serial has no pools at all.
	ampLast := lastJSONLine(t, read("heap-timeline-amplify.jsonl"))
	serLast := lastJSONLine(t, read("heap-timeline-serial.jsonl"))
	if ampLast["pool_hits"] == 0 || ampLast["pool_hit_rate_bp"] == 0 {
		t.Errorf("amplify timeline shows no pool reuse: %v", ampLast)
	}
	if serLast["pool_hits"] != 0 || serLast["pool_retained"] != 0 {
		t.Errorf("serial timeline shows pool activity: %v", serLast)
	}

	folded := string(read("heap-sites-folded.txt"))
	if !strings.Contains(folded, "@") || !strings.Contains(folded, ";") {
		t.Errorf("folded site stacks malformed:\n%s", folded)
	}
	if !strings.Contains(string(read("heap-sites.txt")), "allocation sites") {
		t.Error("heap-sites.txt missing table header")
	}

	summary := read("heap-summary.json")
	var cells map[string]HeapCell
	if err := json.Unmarshal(summary, &cells); err != nil {
		t.Fatalf("heap-summary.json: %v", err)
	}
	if len(cells) == 0 {
		t.Error("heap summary is empty")
	}
}

func lastJSONLine(t *testing.T, b []byte) map[string]int64 {
	t.Helper()
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	var m map[string]int64
	if err := json.Unmarshal(lines[len(lines)-1], &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestExportHeapDeterministicAcrossJobs is the -j1/-j8 byte-identity
// acceptance test for the heap artifacts.
func TestExportHeapDeterministicAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the timeline workloads twice")
	}
	names := []string{"fig4"}
	seq := microRunner()
	seq.Jobs = 1
	if err := seq.Precompute(names); err != nil {
		t.Fatal(err)
	}
	par := microRunner()
	par.Jobs = 8
	if err := par.Precompute(names); err != nil {
		t.Fatal(err)
	}
	seqDir, parDir := t.TempDir(), t.TempDir()
	if err := seq.ExportHeap(seqDir); err != nil {
		t.Fatal(err)
	}
	if err := par.ExportHeap(parDir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(seqDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 9 { // 3 strategies x 2 formats + sites folded/table + summary
		t.Fatalf("exported %d artifacts, want 9", len(entries))
	}
	for _, e := range entries {
		a, err := os.ReadFile(filepath.Join(seqDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(parDir, e.Name()))
		if err != nil {
			t.Fatalf("artifact %s missing from -j8 export: %v", e.Name(), err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between -j1 and -j8 runners", e.Name())
		}
	}
}

// TestReportHeapSection: schema v3 reports carry per-cell heap data
// and per-experiment headlines consistent with it.
func TestReportHeapSection(t *testing.T) {
	r := microRunner()
	names := []string{"fig4"}
	if err := r.Precompute(names); err != nil {
		t.Fatal(err)
	}
	rep, err := r.Report(names)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != "amplify-bench/7" {
		t.Fatalf("schema = %q", rep.Schema)
	}
	if len(rep.Heap) == 0 {
		t.Fatal("report has no heap section")
	}
	for key, cell := range rep.Heap {
		if cell.Footprint <= 0 {
			t.Errorf("cell %s footprint = %d", key, cell.Footprint)
		}
		if cell.IntFragBP < 0 || cell.IntFragBP > 10000 || cell.ExtFragBP < 0 || cell.ExtFragBP > 10000 {
			t.Errorf("cell %s fragmentation out of range: %+v", key, cell)
		}
	}
	h := rep.Experiments[0].Heap
	if h == nil {
		t.Fatal("fig4 has no heap headline")
	}
	if h.MeanFootprint <= 0 || h.PeakFootprint < h.MeanFootprint {
		t.Errorf("headline = %+v", h)
	}
	var maxFoot int64
	fig4, err := lookup("fig4")
	if err != nil {
		t.Fatal(err)
	}
	for _, cell := range fig4.cells(r) {
		if c, ok := rep.Heap[cell.key]; ok && c.Footprint > maxFoot {
			maxFoot = c.Footprint
		}
	}
	if h.PeakFootprint != maxFoot {
		t.Errorf("peak footprint %d != max over cells %d", h.PeakFootprint, maxFoot)
	}
}
