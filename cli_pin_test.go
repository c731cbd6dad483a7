package amplify

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"amplify/internal/obsv/obsvpin"
)

// cliPinInputs are the programs every pinned CLI flow runs on: a
// vet-clean program, one with a V001 defect, a parse error, a sema
// error, and a vet-clean program that reuses a local's name for
// another class, handing the second class's objects to threads.
var cliPinInputs = map[string]string{
	"clean": `class Node {
public:
    Node(int d) {
        v = d;
        if (d > 0) {
            left = new Node(d - 1);
            right = new Node(d - 1);
        } else {
            left = null;
            right = null;
        }
    }
    ~Node() { delete left; delete right; }
    int sum() {
        int s = v;
        if (left != null) { s = s + left->sum(); }
        if (right != null) { s = s + right->sum(); }
        return s;
    }
private:
    Node* left;
    Node* right;
    int v;
};
int main() {
    int total = 0;
    for (int i = 0; i < 10; i = i + 1) {
        Node* n = new Node(3);
        total = total + n->sum();
        delete n;
    }
    print("total", total);
    return 0;
}
`,
	"v001":  cliProgram,
	"parse": "int main() { return 1 +; }\n",
	"sema":  "int main(){ return x; }\n",
	"shadow": `class A { public: A() { v = 1; } int v; };
class B { public: B() { w = 2; } int w; };
void consume(B* b) { print(b->w); delete b; }
int main() {
    { A* p = new A(); delete p; }
    for (int i = 0; i < 4; i = i + 1) { B* p = new B(); spawn consume(p); }
    join;
    return 0;
}
`,
}

// cliPinFlows are the pinned invocations: every flow that reads,
// vets, escape-analyzes, rewrites or runs a program from its source.
var cliPinFlows = map[string][]string{
	"amplify-vet":                 {"amplify", "-vet"},
	"amplify-vet-json":            {"amplify", "-vet-json"},
	"amplify-escape-json":         {"amplify", "-escape-json"},
	"amplify-auto-exclude":        {"amplify", "-auto-exclude", "-report"},
	"amplify-auto-exclude-escape": {"amplify", "-auto-exclude", "-escape", "-report"},
	"amplify-report":              {"amplify", "-report"},
	"amplify-flag-report":         {"amplify", "-mode", "flag", "-report"},
	"mccrun-vet":                  {"mccrun", "-vet"},
	"mccrun-vet-amplify-escape":   {"mccrun", "-vet", "-amplify", "-escape", "-stats"},
	"mccrun-no-opt":               {"mccrun", "-no-opt", "-stats"},
	"mccrun-amplify-metrics":      {"mccrun", "-amplify", "-metrics", "-"},
	"mccrun-amplify-flag":         {"mccrun", "-amplify", "-mode", "flag", "-stats"},
}

// TestCLIOutputsPinned runs every pinned flow on every pinned input
// and compares the SHA-256 of its exit code, stdout and stderr with
// testdata/cli/SHA256SUMS. Re-pin only on purpose, with
// `go test -run TestCLIOutputsPinned . -args -update-observe`.
func TestCLIOutputsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTools(t)
	dir := t.TempDir()
	got := map[string][]byte{}
	for input, src := range cliPinInputs {
		if err := os.WriteFile(filepath.Join(dir, input+".mcc"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for flow, argv := range cliPinFlows {
		for input := range cliPinInputs {
			// Run from dir on a relative path: diagnostics and JSON
			// findings name the file.
			cmd := exec.Command(filepath.Join(bin, argv[0]), append(argv[1:], input+".mcc")...)
			cmd.Dir = dir
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			code := 0
			if err := cmd.Run(); err != nil {
				var exit *exec.ExitError
				if !errors.As(err, &exit) {
					t.Fatalf("%s %s: %v", flow, input, err)
				}
				code = exit.ExitCode()
			}
			got[fmt.Sprintf("cli/%s/%s", flow, input)] =
				fmt.Appendf(nil, "exit %d\n-- stdout --\n%s-- stderr --\n%s", code, stdout.Bytes(), stderr.Bytes())
		}
	}
	obsvpin.Check(t, filepath.Join("testdata", "cli", "SHA256SUMS"), "cli/", got)
}
