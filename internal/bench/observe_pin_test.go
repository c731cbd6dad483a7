package bench

import (
	"os"
	"path/filepath"
	"testing"

	"amplify/internal/obsv/obsvpin"
)

// TestExportArtifactsPinned compares every Export artifact of a micro
// runner (memo warmed by fig4, as the CLI warms it before exporting)
// against testdata/observe/SHA256SUMS, which was
// produced before the observation hooks were unified onto one event
// stream.
func TestExportArtifactsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the trace and timeline workloads")
	}
	r := microRunner()
	if err := r.Precompute([]string{"fig4"}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := r.Export(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][]byte{}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		got["bench/"+e.Name()] = b
	}
	obsvpin.Check(t, filepath.Join("..", "..", "testdata", "observe", "SHA256SUMS"), "bench/", got)
}
