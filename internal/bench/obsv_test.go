package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExportTracesArtifacts checks every exported trace, profile and
// metrics artifact exists, is valid where it claims to be JSON, and
// actually shows the paper's story: heap-lock wait slices under the
// global-lock allocator, (next to) none under the pools.
func TestExportTracesArtifacts(t *testing.T) {
	r := microRunner()
	dir := t.TempDir()
	if err := r.Export(dir); err != nil {
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

	serial := read("trace-serial.json")
	amp := read("trace-amplify.json")
	for name, b := range map[string][]byte{"trace-serial.json": serial, "trace-amplify.json": amp, "trace-ptmalloc.json": read("trace-ptmalloc.json")} {
		if !json.Valid(b) {
			t.Errorf("%s is not valid JSON", name)
		}
	}
	serialWaits := bytes.Count(serial, []byte(`"ph":"b"`))
	ampWaits := bytes.Count(amp, []byte(`"ph":"b"`))
	if serialWaits == 0 {
		t.Error("serial trace has no lock-wait slices")
	}
	if ampWaits*10 >= serialWaits {
		t.Errorf("amplify lock-wait slices %d not well below serial %d", ampWaits, serialWaits)
	}

	for _, line := range bytes.Split(bytes.TrimSpace(read("trace-serial.jsonl")), []byte("\n")) {
		if !json.Valid(line) {
			t.Fatalf("invalid JSONL line: %s", line)
		}
	}

	if locks := string(read("trace-locks.txt")); !strings.Contains(locks, "serial.global") {
		t.Errorf("lock profile does not mention the global heap lock:\n%s", locks)
	}

	folded := string(read("profile-folded.txt"))
	if !strings.Contains(folded, "main") || !strings.Contains(folded, "churn") {
		t.Errorf("folded profile missing MiniCC functions:\n%s", folded)
	}

	metrics := read("metrics.json")
	if !json.Valid(metrics) {
		t.Error("metrics.json is not valid JSON")
	}
}

// TestExportTracesDeterministicAcrossJobs extends the differential
// suite to the observability artifacts: a runner that warmed its memo
// with one worker and one that used eight must export byte-identical
// traces, profiles and metrics.
func TestExportTracesDeterministicAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the observed workloads twice")
	}
	sameExportAcrossJobs(t, func(name string) bool { return !isHeapArtifact(name) }, 7)
}

// isHeapArtifact reports whether an exported file belongs to the heap
// half of the set: timelines, allocation-site profiles and summary.
func isHeapArtifact(name string) bool {
	return strings.HasPrefix(name, "heap-") || strings.HasPrefix(name, "sites-")
}

// sameExportAcrossJobs exports the full 16-file observation set from a
// -j1 and a -j8 runner and checks the files that keep selects, want of
// them, are byte-identical between the two.
func sameExportAcrossJobs(t *testing.T, keep func(name string) bool, want int) {
	t.Helper()
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
	if err := seq.Export(seqDir); err != nil {
		t.Fatal(err)
	}
	if err := par.Export(parDir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(seqDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 16 { // 3 strategies x (trace + 2 timelines) + serial jsonl/locks + 3 profiles + 2 summaries
		t.Fatalf("exported %d artifacts, want 16", len(entries))
	}
	compared := 0
	for _, e := range entries {
		if !keep(e.Name()) {
			continue
		}
		compared++
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
	if compared != want {
		t.Errorf("compared %d artifacts, want %d", compared, want)
	}
}
