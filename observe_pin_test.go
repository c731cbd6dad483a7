package amplify

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"amplify/internal/obsv/obsvpin"
)

// observeProgram is the threaded program whose observation artifacts
// are pinned in testdata/observe/SHA256SUMS: two spawned workers build
// and tear down small trees, so the run exercises locks, pools,
// allocator traffic and function calls on more than one thread.
const observeProgram = `class Node {
public:
    Node(int d) {
        if (d > 0) { left = new Node(d - 1); right = new Node(d - 1); }
    }
    ~Node() { delete left; delete right; }
private:
    Node* left;
    Node* right;
};
void worker(int id) {
    for (int i = 0; i < 8; i = i + 1) {
        Node* n = new Node(3);
        delete n;
    }
}
int main() {
    spawn worker(1);
    spawn worker(2);
    join;
    return 0;
}
`

// observeConfigs are the pinned runs: the program amplified over
// ptmalloc (pool traffic, shadow pointers) and plain over ptmalloc
// (every object through the allocator and its arena locks).
var observeConfigs = map[string][]string{
	"amplify": {"-amplify", "-alloc", "ptmalloc", "-heap-interval", "2000"},
	"plain":   {"-alloc", "ptmalloc", "-heap-interval", "2000"},
}

// observeFlags maps every mccrun observer flag to the artifact files
// it writes (relative to the output directory). The first name is the
// flag's argument.
var observeFlags = []struct {
	flag  string
	files []string
}{
	{"-trace-out", []string{"trace.json"}},
	{"-trace-jsonl", []string{"trace.jsonl"}},
	{"-profile-out", []string{"profile.folded", "profile.folded.locks"}},
	{"-heap-timeline", []string{"heap.jsonl"}},
	{"-heap-profile", []string{"heap.folded", "heap.folded.sites"}},
	{"-record-trace", []string{"alloc.trace", "alloc.trace.jsonl"}},
	{"-metrics", []string{"metrics.json"}},
}

// runObserved runs mccrun on the pinned program with the given
// observer flags, writing artifacts into dir.
func runObserved(t *testing.T, bin, dir string, config []string, flags ...string) {
	t.Helper()
	src := filepath.Join(dir, "prog.mcc")
	if err := os.WriteFile(src, []byte(observeProgram), 0o644); err != nil {
		t.Fatal(err)
	}
	// The recorded trace is stamped with the program path, so run from
	// dir with a relative path.
	args := append(append(append([]string{}, config...), flags...), "prog.mcc")
	cmd := exec.Command(filepath.Join(bin, "mccrun"), args...)
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("mccrun %v: %v\n%s", args, err, out)
	}
}

// virtualCPUEvents keeps only the PID 0 (virtual-CPU) entries of a
// Chrome trace, one raw JSON event per line: the PID 1 host-span
// track carries wall-clock time and differs between runs.
func virtualCPUEvents(t *testing.T, raw []byte) []byte {
	t.Helper()
	var tr struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatalf("chrome trace: %v", err)
	}
	var b strings.Builder
	for _, ev := range tr.TraceEvents {
		var head struct {
			PID int `json:"pid"`
		}
		if err := json.Unmarshal(ev, &head); err != nil {
			t.Fatal(err)
		}
		if head.PID == 0 {
			b.Write(ev)
			b.WriteByte('\n')
		}
	}
	return []byte(b.String())
}

// TestObservationArtifactsPinned runs mccrun once per configuration
// with every observer flag (plus once more for the CSV timeline) and
// compares each artifact's SHA-256 against testdata/observe/SHA256SUMS.
// The sums were produced before the observation hooks were unified
// onto one event stream, so any byte an observer refactor moves fails
// here.
func TestObservationArtifactsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTools(t)
	got := map[string][]byte{}
	for name, config := range observeConfigs {
		dir := t.TempDir()
		var flags []string
		for _, f := range observeFlags {
			flags = append(flags, f.flag, filepath.Join(dir, f.files[0]))
		}
		runObserved(t, bin, dir, config, flags...)
		runObserved(t, bin, dir, config, "-heap-timeline", filepath.Join(dir, "heap.csv"))
		files := []string{"heap.csv"}
		for _, f := range observeFlags {
			files = append(files, f.files...)
		}
		for _, file := range files {
			b, err := os.ReadFile(filepath.Join(dir, file))
			if err != nil {
				t.Fatal(err)
			}
			if file == "trace.json" {
				file, b = "trace.pid0.jsonl", virtualCPUEvents(t, b)
			}
			got["mccrun/"+name+"/"+file] = b
		}
	}
	obsvpin.Check(t, filepath.Join("testdata", "observe", "SHA256SUMS"), "mccrun/", got)
}
