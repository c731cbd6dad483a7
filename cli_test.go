package amplify

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"amplify/internal/alloctrace"
)

// buildTools compiles the four CLIs once per test binary.
func buildTools(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, tool := range []string{"amplify", "mccrun", "amplifybench", "mcctrace"} {
		out := filepath.Join(dir, tool)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+tool)
		cmd.Env = os.Environ()
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, b)
		}
	}
	return dir
}

const cliProgram = `
class Node {
public:
    Node(int d) {
        v = d;
        if (d > 0) {
            left = new Node(d - 1);
            right = new Node(d - 1);
        }
    }
    ~Node() {
        delete left;
        delete right;
    }
private:
    Node* left;
    Node* right;
    int v;
};

int main() {
    for (int i = 0; i < 10; i = i + 1) {
        Node* n = new Node(3);
        delete n;
    }
    print("done");
    return 0;
}
`

func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTools(t)
	srcPath := filepath.Join(t.TempDir(), "prog.mcc")
	if err := os.WriteFile(srcPath, []byte(cliProgram), 0o644); err != nil {
		t.Fatal(err)
	}

	// amplify: transform and report.
	out, err := exec.Command(filepath.Join(bin, "amplify"), "-report", srcPath).CombinedOutput()
	if err != nil {
		t.Fatalf("amplify: %v\n%s", err, out)
	}
	text := string(out)
	for _, want := range []string{"leftShadow", "operator new", "pooled classes"} {
		if !strings.Contains(text, want) {
			t.Errorf("amplify output missing %q", want)
		}
	}

	// amplify -o writes a file that mccrun can execute.
	ampPath := filepath.Join(t.TempDir(), "amped.mcc")
	if out, err := exec.Command(filepath.Join(bin, "amplify"), "-o", ampPath, srcPath).CombinedOutput(); err != nil {
		t.Fatalf("amplify -o: %v\n%s", err, out)
	}

	// mccrun on both engines and both variants agrees.
	for _, engine := range []string{"vm", "ast"} {
		for _, p := range []string{srcPath, ampPath} {
			out, err := exec.Command(filepath.Join(bin, "mccrun"), "-engine", engine, p).CombinedOutput()
			if err != nil {
				t.Fatalf("mccrun %s %s: %v\n%s", engine, p, err, out)
			}
			if string(out) != "done\n" {
				t.Errorf("mccrun %s %s output = %q", engine, p, out)
			}
		}
	}

	// mccrun -amplify -stats reports the transformation inline.
	cmd := exec.Command(filepath.Join(bin, "mccrun"), "-amplify", "-stats", srcPath)
	combined, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("mccrun -amplify: %v\n%s", err, combined)
	}
	if !strings.Contains(string(combined), "pool hits") {
		t.Errorf("missing stats output:\n%s", combined)
	}

	// amplifybench lists and runs a cheap experiment.
	out, err = exec.Command(filepath.Join(bin, "amplifybench"), "-list").CombinedOutput()
	if err != nil {
		t.Fatalf("amplifybench -list: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "fig11") {
		t.Errorf("list missing fig11:\n%s", out)
	}
	out, err = exec.Command(filepath.Join(bin, "amplifybench"), "-exp", "table1").CombinedOutput()
	if err != nil {
		t.Fatalf("amplifybench table1: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "63") {
		t.Errorf("table1 output wrong:\n%s", out)
	}
}

// TestCLIHeapArtifacts covers the heap-introspection flags: mccrun
// writes a timeline and a site profile, refuses them on the ast
// engine, and a failed export exits non-zero without swallowing the
// program's output.
func TestCLIHeapArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTools(t)
	srcPath := filepath.Join(t.TempDir(), "prog.mcc")
	if err := os.WriteFile(srcPath, []byte(cliProgram), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	tlPath := filepath.Join(dir, "timeline.jsonl")
	csvPath := filepath.Join(dir, "timeline.csv")
	hpPath := filepath.Join(dir, "sites.txt")

	out, err := exec.Command(filepath.Join(bin, "mccrun"), "-amplify",
		"-heap-timeline", tlPath, "-heap-interval", "5000",
		"-heap-profile", hpPath, srcPath).CombinedOutput()
	if err != nil {
		t.Fatalf("mccrun heap flags: %v\n%s", err, out)
	}
	tl, err := os.ReadFile(tlPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(tl)), "\n") {
		if !json.Valid([]byte(line)) {
			t.Fatalf("timeline line not JSON: %s", line)
		}
	}
	if !strings.Contains(string(tl), `"pool_hits"`) {
		t.Error("timeline missing pool counters")
	}
	hp, err := os.ReadFile(hpPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(hp), "(Node)") {
		t.Errorf("site profile missing Node sites:\n%s", hp)
	}
	if _, err := os.Stat(hpPath + ".sites"); err != nil {
		t.Errorf("per-site table not written: %v", err)
	}

	// CSV variant picks the format from the extension.
	if out, err := exec.Command(filepath.Join(bin, "mccrun"),
		"-heap-timeline", csvPath, srcPath).CombinedOutput(); err != nil {
		t.Fatalf("mccrun csv timeline: %v\n%s", err, out)
	}
	if csv, _ := os.ReadFile(csvPath); !strings.HasPrefix(string(csv), "now,footprint") {
		t.Errorf("csv timeline header wrong: %.60s", csv)
	}

	// The ast engine has no observer hooks.
	if out, err := exec.Command(filepath.Join(bin, "mccrun"), "-engine", "ast",
		"-heap-timeline", tlPath, srcPath).CombinedOutput(); err == nil {
		t.Errorf("ast engine accepted -heap-timeline:\n%s", out)
	}

	// A failed export must exit non-zero and still deliver the
	// program's stdout (the exit-code satellite fix).
	cmd := exec.Command(filepath.Join(bin, "mccrun"),
		"-heap-timeline", filepath.Join(dir, "no-such-dir", "t.jsonl"), srcPath)
	stdout, err := cmd.Output()
	if err == nil {
		t.Error("mccrun exited 0 on failed -heap-timeline write")
	}
	if string(stdout) != "done\n" {
		t.Errorf("program output lost on export failure: %q", stdout)
	}
	cmd = exec.Command(filepath.Join(bin, "mccrun"),
		"-trace-out", filepath.Join(dir, "no-such-dir", "t.json"), srcPath)
	if stdout, err := cmd.Output(); err == nil {
		t.Error("mccrun exited 0 on failed -trace-out write")
	} else if string(stdout) != "done\n" {
		t.Errorf("program output lost on trace failure: %q", stdout)
	}
}

// TestCLICompare drives amplifybench -compare over seeded reports:
// clean diff exits 0, regression exits 3, garbage exits 1.
func TestCLICompare(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTools(t)
	dir := t.TempDir()
	write := func(name, content string) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("base.json", `{"schema":"amplify-bench/3",
		"makespans":{"tree/a":1000,"tree/b":2000},
		"heap":{"tree/a":{"footprint":4096,"peak_bytes":512,"int_frag_bp":100,"ext_frag_bp":0}}}`)
	same := write("same.json", `{"schema":"amplify-bench/3",
		"makespans":{"tree/a":1000,"tree/b":2000},
		"heap":{"tree/a":{"footprint":4096,"peak_bytes":512,"int_frag_bp":100,"ext_frag_bp":0}}}`)
	worse := write("worse.json", `{"schema":"amplify-bench/3",
		"makespans":{"tree/a":1100,"tree/b":2000},
		"heap":{"tree/a":{"footprint":4096,"peak_bytes":512,"int_frag_bp":100,"ext_frag_bp":0}}}`)

	out, err := exec.Command(filepath.Join(bin, "amplifybench"), "-compare", base, same).CombinedOutput()
	if err != nil {
		t.Fatalf("identical reports: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "no regressions") {
		t.Errorf("clean diff output:\n%s", out)
	}

	out, err = exec.Command(filepath.Join(bin, "amplifybench"), "-compare", base, worse).CombinedOutput()
	exitErr, ok := err.(*exec.ExitError)
	if !ok || exitErr.ExitCode() != 3 {
		t.Fatalf("regression diff: err = %v (want exit 3)\n%s", err, out)
	}
	if !strings.Contains(string(out), "makespan tree/a: 1000 -> 1100") {
		t.Errorf("regression not named:\n%s", out)
	}

	// -threshold forgives the 10% drift.
	if out, err := exec.Command(filepath.Join(bin, "amplifybench"),
		"-compare", "-threshold", "15", base, worse).CombinedOutput(); err != nil {
		t.Fatalf("threshold 15%%: %v\n%s", err, out)
	}

	garbage := write("garbage.json", "not json")
	out, err = exec.Command(filepath.Join(bin, "amplifybench"), "-compare", base, garbage).CombinedOutput()
	if exitErr, ok := err.(*exec.ExitError); !ok || exitErr.ExitCode() != 1 {
		t.Fatalf("garbage report: err = %v (want exit 1)\n%s", err, out)
	}

	// Host-benchmark reports are detected by schema and diffed on
	// ns/op with the same threshold flag (generously set — host
	// timings are noisy).
	hostBase := write("host_base.json", `{"schema":"amplify-hostbench/1","go_version":"go1.23",
		"benchmarks":[{"name":"vm/arith_loop/switch","ns_per_op":1000000,"allocs_per_op":50}]}`)
	hostSame := write("host_same.json", `{"schema":"amplify-hostbench/1","go_version":"go1.23",
		"benchmarks":[{"name":"vm/arith_loop/switch","ns_per_op":1200000,"allocs_per_op":50}]}`)
	hostWorse := write("host_worse.json", `{"schema":"amplify-hostbench/1","go_version":"go1.23",
		"benchmarks":[{"name":"vm/arith_loop/switch","ns_per_op":2500000,"allocs_per_op":50}]}`)
	if out, err := exec.Command(filepath.Join(bin, "amplifybench"),
		"-compare", "-threshold", "50", hostBase, hostSame).CombinedOutput(); err != nil {
		t.Fatalf("host drift within threshold: %v\n%s", err, out)
	}
	out, err = exec.Command(filepath.Join(bin, "amplifybench"),
		"-compare", "-threshold", "50", hostBase, hostWorse).CombinedOutput()
	if exitErr, ok := err.(*exec.ExitError); !ok || exitErr.ExitCode() != 3 {
		t.Fatalf("host regression: err = %v (want exit 3)\n%s", err, out)
	}
	if !strings.Contains(string(out), "ns_per_op vm/arith_loop/switch") {
		t.Errorf("host regression not named:\n%s", out)
	}

	// Mixing a host report with a simulated-bench report is an error,
	// not an empty diff.
	out, err = exec.Command(filepath.Join(bin, "amplifybench"), "-compare", base, hostBase).CombinedOutput()
	if exitErr, ok := err.(*exec.ExitError); !ok || exitErr.ExitCode() != 1 {
		t.Fatalf("mixed report kinds: err = %v (want exit 1)\n%s", err, out)
	}
}

// TestCLIAllocFailFast: a typo'd -alloc name must fail immediately —
// before any parsing or simulation — naming the valid strategies, on
// both CLIs; the lock-free allocator must be accepted by both.
func TestCLIAllocFailFast(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTools(t)
	srcPath := filepath.Join(t.TempDir(), "prog.mcc")
	if err := os.WriteFile(srcPath, []byte(cliProgram), 0o644); err != nil {
		t.Fatal(err)
	}

	out, err := exec.Command(filepath.Join(bin, "mccrun"), "-alloc", "tcmalloc", srcPath).CombinedOutput()
	if exitErr, ok := err.(*exec.ExitError); !ok || exitErr.ExitCode() != 1 {
		t.Fatalf("mccrun unknown -alloc: err = %v (want exit 1)\n%s", err, out)
	}
	for _, want := range []string{`"tcmalloc"`, "serial", "ptmalloc", "hoard", "lfalloc"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("mccrun -alloc error missing %q:\n%s", want, out)
		}
	}

	out, err = exec.Command(filepath.Join(bin, "amplifybench"), "-alloc", "lfalloc,tcmalloc", "-exp", "contend").CombinedOutput()
	if exitErr, ok := err.(*exec.ExitError); !ok || exitErr.ExitCode() != 1 {
		t.Fatalf("amplifybench unknown -alloc: err = %v (want exit 1)\n%s", err, out)
	}
	if !strings.Contains(string(out), `"tcmalloc"`) || !strings.Contains(string(out), "serial") {
		t.Errorf("amplifybench -alloc error missing the valid list:\n%s", out)
	}

	// The lock-free allocator runs a program end to end.
	out, err = exec.Command(filepath.Join(bin, "mccrun"), "-alloc", "lfalloc", "-stats", srcPath).CombinedOutput()
	if err != nil {
		t.Fatalf("mccrun -alloc lfalloc: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "done") || !strings.Contains(string(out), "atomic ops:") {
		t.Errorf("lfalloc run output:\n%s", out)
	}
}

// TestCLIBenchRejectsBadArguments: amplifybench refuses an unknown
// -exp name, an unknown -format, -format with -json, and any flag its
// mode would ignore with a plain exit 1 before anything prints or is
// written, naming every experiment or the ignored flag and the mode.
func TestCLIBenchRejectsBadArguments(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTools(t)
	names, err := exec.Command(filepath.Join(bin, "amplifybench"), "-list").Output()
	if err != nil {
		t.Fatalf("amplifybench -list: %v", err)
	}
	all := strings.Fields(string(names))
	if len(all) != 18 {
		t.Fatalf("-list = %v, want 18 experiments", all)
	}
	dir := t.TempDir()
	observeDir := filepath.Join(dir, "observe")
	report := filepath.Join(dir, "r.json")
	if err := os.WriteFile(report, []byte(`{"schema":"amplify-bench/7","makespans":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	ignored := map[string]string{ // args[0] -> the one stderr line
		"-compare": "amplifybench: -exp does not apply to -compare\n",
		"-list":    "amplifybench: -exp does not apply to -list\n",
		"-explain": "amplifybench: -explain does not apply to -compare\n",
		"-no-opt":  "amplifybench: -no-opt does not apply to -explain\n",
		"-exp":     "amplifybench: -threshold does not apply to an experiment run\n",
	}
	for _, args := range [][]string{
		{"-quick", "-exp", "fig4,bogus"},
		{"-quick", "-exp", "table1", "-format", "bogus"},
		{"-quick", "-exp", "table1", "-json", "-format", "csv"},
		{"-compare", "-exp", "bogus", "-quick", "-observe", observeDir, report, report},
		{"-list", "-exp", "bogus", "-format", "nope"},
		{"-explain", "-compare", report, report},
		{"-no-opt", "-explain", report, report},
		{"-exp", "table1", "-threshold", "5"},
	} {
		cmd := exec.Command(filepath.Join(bin, "amplifybench"), args...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		if exitErr, ok := err.(*exec.ExitError); !ok || exitErr.ExitCode() != 1 {
			t.Errorf("%v: err = %v (want exit 1)\n%s", args, err, stderr.String())
			continue
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed before failing:\n%s", args, stdout.String())
		}
		if want, ok := ignored[args[0]]; ok && stderr.String() != want {
			t.Errorf("%v: stderr = %q, want %q", args, stderr.String(), want)
		}
		if args[2] == "fig4,bogus" {
			for _, name := range all {
				if !strings.Contains(stderr.String(), name) {
					t.Errorf("unknown -exp error does not list %q:\n%s", name, stderr.String())
				}
			}
		}
	}
	if _, err := os.Stat(observeDir); !os.IsNotExist(err) {
		t.Errorf("a refused -compare created its -observe directory: %v", err)
	}
}

func TestCLIErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTools(t)
	// Parse error surfaces with a position and non-zero exit.
	srcPath := filepath.Join(t.TempDir(), "bad.mcc")
	if err := os.WriteFile(srcPath, []byte("class {"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(filepath.Join(bin, "amplify"), srcPath).CombinedOutput()
	if err == nil {
		t.Fatalf("expected failure, got:\n%s", out)
	}
	if !strings.Contains(string(out), "1:7") {
		t.Errorf("error lacks position:\n%s", out)
	}
}

// vetProgram exhibits all six analyzer defect classes; Bad collects
// the five error-severity ones, Leaky only warnings.
const vetProgram = `class Child {
public:
    Child(int v) {
        x = v;
    }
    ~Child() {
    }
    int get() {
        return x;
    }
private:
    int x;
};

class Bad {
public:
    Bad(int n) {
        if (n > 0) {
            kid = new Child(n);
        }
        spare = new Child(1);
        other = spare;
    }
    ~Bad() {
        delete kid;
        delete kid;
        delete spare;
    }
    int poke() {
        delete spare;
        return spare->get();
    }
    Child* steal() {
        return kid;
    }
    void drop() {
        Child* p = kid;
        delete p;
    }
private:
    Child* kid;
    Child* spare;
    Child* other;
};

class Leaky {
public:
    Leaky(int n) {
        buf = new char[n];
        buf = new char[n + 1];
    }
    ~Leaky() {
    }
private:
    char* buf;
};

void consume(Child* c) {
    delete c;
}

int main() {
    Bad* b = new Bad(3);
    int r = b->poke();
    Child* c = new Child(7);
    consume(c);
    print("done");
    return r;
}
`

func TestCLIVet(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTools(t)
	srcPath := filepath.Join(t.TempDir(), "six.mcc")
	if err := os.WriteFile(srcPath, []byte(vetProgram), 0o644); err != nil {
		t.Fatal(err)
	}

	// amplify -vet reports every defect class at its exact position and
	// exits nonzero because errors are present.
	out, err := exec.Command(filepath.Join(bin, "amplify"), "-vet", srcPath).CombinedOutput()
	if err == nil {
		t.Fatalf("amplify -vet exit = 0 on defective program:\n%s", out)
	}
	text := string(out)
	for _, want := range []string{
		"22:15: V005 error",
		"26:9: V003 error",
		"31:16: V002 error",
		"34:9: V005 error",
		"38:9: V004 error",
		"41:12: V001 error",
		"50:13: V006 warning",
		"55:11: V006 warning",
		"63:10: V006 warning",
		"6 errors, 3 warnings",
		"class Bad ineligible for amplification (V001 ctor-uninit, V002 use-after-delete, V003 double-delete, V004 alias-delete, V005 field-escape)",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("amplify -vet output missing %q:\n%s", want, text)
		}
	}

	// amplify -vet-json emits machine-readable findings.
	out, err = exec.Command(filepath.Join(bin, "amplify"), "-vet-json", srcPath).Output()
	if err == nil {
		t.Fatal("amplify -vet-json exit = 0 on defective program")
	}
	var parsed struct {
		Errors      int `json:"errors"`
		Warnings    int `json:"warnings"`
		AutoExclude []struct {
			Class string `json:"class"`
		} `json:"autoExclude"`
	}
	if jerr := json.Unmarshal(out, &parsed); jerr != nil {
		t.Fatalf("-vet-json output not JSON: %v\n%s", jerr, out)
	}
	if parsed.Errors != 6 || parsed.Warnings != 3 {
		t.Errorf("-vet-json counts = %+v", parsed)
	}
	if len(parsed.AutoExclude) != 1 || parsed.AutoExclude[0].Class != "Bad" {
		t.Errorf("-vet-json autoExclude = %+v", parsed.AutoExclude)
	}

	// amplify -auto-exclude removes exactly the ineligible class, keeps
	// the rest amplified, and says so in the report.
	out, err = exec.Command(filepath.Join(bin, "amplify"), "-auto-exclude", "-report", srcPath).CombinedOutput()
	if err != nil {
		t.Fatalf("amplify -auto-exclude: %v\n%s", err, out)
	}
	text = string(out)
	if !strings.Contains(text, "auto-excluded:       Bad (V001 ctor-uninit, V002 use-after-delete, V003 double-delete, V004 alias-delete, V005 field-escape)") {
		t.Errorf("report missing auto-excluded section:\n%s", text)
	}
	if strings.Contains(text, "__pool_alloc(Bad)") {
		t.Error("ineligible class Bad was still pooled")
	}
	for _, want := range []string{"__pool_alloc(Child)", "__pool_alloc(Leaky)"} {
		if !strings.Contains(text, want) {
			t.Errorf("eligible class lost its pool (%s missing):\n%s", want, text)
		}
	}

	// Manual -exclude merges with auto-exclusion.
	out, err = exec.Command(filepath.Join(bin, "amplify"), "-auto-exclude", "-exclude", "Leaky", "-report", srcPath).CombinedOutput()
	if err != nil {
		t.Fatalf("amplify -auto-exclude -exclude: %v\n%s", err, out)
	}
	text = string(out)
	if strings.Contains(text, "__pool_alloc(Leaky)") || strings.Contains(text, "__pool_alloc(Bad)") {
		t.Errorf("excluded classes still pooled:\n%s", text)
	}
	if !strings.Contains(text, "skipped classes:     Leaky (excluded by option)") {
		t.Errorf("manual exclusion not reported:\n%s", text)
	}

	// mccrun -vet refuses to execute a program with vet errors.
	out, err = exec.Command(filepath.Join(bin, "mccrun"), "-vet", srcPath).CombinedOutput()
	if err == nil {
		t.Fatalf("mccrun -vet ran a defective program:\n%s", out)
	}
	if !strings.Contains(string(out), "refusing to run") {
		t.Errorf("mccrun -vet error message:\n%s", out)
	}

	// A clean program passes -vet (exit 0) and still runs under -vet.
	cleanPath := filepath.Join(t.TempDir(), "clean.mcc")
	clean := `class Node {
public:
    Node(int v) {
        val = v;
        next = null;
    }
    ~Node() {
        delete next;
    }
private:
    int val;
    Node* next;
};

int main() {
    Node* n = new Node(1);
    delete n;
    print("ok");
    return 0;
}
`
	if err := os.WriteFile(cleanPath, []byte(clean), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command(filepath.Join(bin, "amplify"), "-vet", cleanPath).CombinedOutput(); err != nil {
		t.Fatalf("amplify -vet on clean program: %v\n%s", err, out)
	}
	out, err = exec.Command(filepath.Join(bin, "mccrun"), "-vet", "-amplify", cleanPath).CombinedOutput()
	if err != nil {
		t.Fatalf("mccrun -vet -amplify on clean program: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "ok") {
		t.Errorf("clean program output = %q", out)
	}
}

// TestCLIEngineFailFast: a typo'd -engine name must fail immediately —
// before the program file is even read — naming the valid engines.
func TestCLIEngineFailFast(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTools(t)

	// The program path does not exist: if the engine check ran after
	// reading the input, the error would be about the file instead.
	// "closure" names the removed closure-compiled backend.
	for _, engine := range []string{"turbo", "closure"} {
		out, err := exec.Command(filepath.Join(bin, "mccrun"), "-engine", engine, "missing.mcc").CombinedOutput()
		if exitErr, ok := err.(*exec.ExitError); !ok || exitErr.ExitCode() != 1 {
			t.Fatalf("mccrun -engine %s: err = %v (want exit 1)\n%s", engine, err, out)
		}
		text := string(out)
		if want := fmt.Sprintf("unknown engine %q (want vm or ast)", engine); !strings.Contains(text, want) {
			t.Errorf("mccrun -engine %s error missing %q:\n%s", engine, want, text)
		}
		if strings.Contains(text, "missing.mcc") {
			t.Errorf("engine validation ran after reading the input:\n%s", text)
		}
	}

	// Valid engines still run.
	srcPath := filepath.Join(t.TempDir(), "prog.mcc")
	if err := os.WriteFile(srcPath, []byte(cliProgram), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, engine := range []string{"vm", "ast"} {
		out, err := exec.Command(filepath.Join(bin, "mccrun"), "-engine", engine, srcPath).CombinedOutput()
		if err != nil {
			t.Fatalf("mccrun -engine %s: %v\n%s", engine, err, out)
		}
	}
}

// TestCLIRejectsInapplicableFlags: a flag the chosen configuration
// would silently ignore is an error — a plain message, exit 1, no stack
// trace — raised before the program file is read.
func TestCLIRejectsInapplicableFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTools(t)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-escape"}, "-escape needs -amplify"},
		{[]string{"-arrays-only"}, "-arrays-only needs -amplify"},
		{[]string{"-arrays-only", "-mode", "bogus"}, "-arrays-only needs -amplify"},
		{[]string{"-mode", "flag"}, "-mode needs -amplify"},
		{[]string{"-mode", "shadow"}, "-mode needs -amplify"},
		{[]string{"-engine", "ast", "-no-opt"}, "-no-opt needs -engine vm"},
		{[]string{"-heap-interval", "-7", "-heap-timeline", "h.jsonl"}, "-heap-interval must be positive"},
		{[]string{"-heap-interval", "0", "-heap-timeline", "h.jsonl"}, "-heap-interval must be positive"},
		{[]string{"-heap-interval", "100"}, "-heap-interval needs -heap-timeline"},
		{[]string{"-trace", "-3"}, "-trace must not be negative"},
	} {
		// The program path does not exist, so a check that ran after
		// reading the input would report the file instead.
		args := append(tc.args, "missing.mcc")
		out, err := exec.Command(filepath.Join(bin, "mccrun"), args...).CombinedOutput()
		if exitErr, ok := err.(*exec.ExitError); !ok || exitErr.ExitCode() != 1 {
			t.Errorf("mccrun %v: err = %v (want exit 1)\n%s", tc.args, err, out)
			continue
		}
		text := string(out)
		if !strings.Contains(text, tc.want) {
			t.Errorf("mccrun %v: error missing %q:\n%s", tc.args, tc.want, text)
		}
		if strings.Contains(text, "missing.mcc") || strings.Contains(text, "goroutine") {
			t.Errorf("mccrun %v: not a plain error raised before reading the input:\n%s", tc.args, text)
		}
	}
}

// TestCLIRecordTrace: mccrun -record-trace captures a decodable,
// attributed allocation trace with a JSONL mirror, and mcctrace can
// analyze and replay the captured file.
func TestCLIRecordTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTools(t)
	dir := t.TempDir()
	srcPath := filepath.Join(dir, "prog.mcc")
	if err := os.WriteFile(srcPath, []byte(cliProgram), 0o644); err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(dir, "prog.trace")

	out, err := exec.Command(filepath.Join(bin, "mccrun"), "-record-trace", tracePath, srcPath).CombinedOutput()
	if err != nil {
		t.Fatalf("mccrun -record-trace: %v\n%s", err, out)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := alloctrace.Decode(raw)
	if err != nil {
		t.Fatalf("captured trace does not decode: %v", err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("captured trace invalid: %v", err)
	}
	st := tr.Stats()
	if st.Allocs == 0 || st.Frees == 0 {
		t.Errorf("captured trace is empty: %+v", st)
	}
	attributed := false
	for _, s := range tr.Sites {
		if strings.Contains(s, "(Node)") {
			attributed = true
		}
	}
	if !attributed {
		t.Errorf("captured trace sites carry no MiniCC attribution: %v", tr.Sites)
	}
	if _, err := os.Stat(tracePath + ".jsonl"); err != nil {
		t.Errorf("JSONL mirror missing: %v", err)
	}

	// mcctrace analyze prints the shape summary for the captured file.
	out, err = exec.Command(filepath.Join(bin, "mcctrace"), "analyze", tracePath).CombinedOutput()
	if err != nil {
		t.Fatalf("mcctrace analyze: %v\n%s", err, out)
	}
	for _, want := range []string{"size histogram", "lifetime", "(Node)"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("analyze output missing %q:\n%s", want, out)
		}
	}

	// mcctrace replay drives the captured trace through another
	// allocator on the simulated machine.
	out, err = exec.Command(filepath.Join(bin, "mcctrace"), "replay", "-alloc", "ptmalloc", tracePath).CombinedOutput()
	if err != nil {
		t.Fatalf("mcctrace replay: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "ptmalloc") || !strings.Contains(string(out), "makespan") {
		t.Errorf("replay output missing result line:\n%s", out)
	}

	// replay -record-trace writes the re-captured trace through the same
	// writer as mccrun, JSONL mirror included.
	rePath := filepath.Join(dir, "replayed.trace")
	if out, err := exec.Command(filepath.Join(bin, "mcctrace"), "replay", "-record-trace", rePath, tracePath).CombinedOutput(); err != nil {
		t.Fatalf("mcctrace replay -record-trace: %v\n%s", err, out)
	}
	for _, p := range []string{rePath, rePath + ".jsonl"} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("re-captured artifact %s missing or empty: %v", p, err)
		}
	}
}

// TestCLITraceGenMatchesCommitted: `mcctrace gen` into a scratch
// directory reproduces the committed corpora manifest byte for byte.
func TestCLITraceGenMatchesCommitted(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTools(t)
	dir := t.TempDir()
	out, err := exec.Command(filepath.Join(bin, "mcctrace"), "gen", "-dir", dir).CombinedOutput()
	if err != nil {
		t.Fatalf("mcctrace gen: %v\n%s", err, out)
	}
	got, err := os.ReadFile(filepath.Join(dir, "SHA256SUMS"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "traces", "SHA256SUMS"))
	if err != nil {
		t.Fatalf("committed manifest missing: %v (run `go run ./cmd/mcctrace gen`)", err)
	}
	if string(got) != string(want) {
		t.Errorf("regenerated corpora manifest differs from committed:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestCLIExplain drives amplifybench -explain over a seeded regression:
// the report must name the serial allocator's global lock in its top-3
// attributions and be byte-identical at -j1 and -j8.
func TestCLIExplain(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTools(t)
	dir := t.TempDir()
	write := func(name, content string) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	// The cell is the quick-mode contention cell; the makespans are
	// fabricated (old deflated 20%), so the explain probe re-measures
	// the real cell and attributes the regression to its dominant
	// locks regardless of the exact numbers in the reports.
	old := write("old.json", `{"schema":"amplify-bench/7","quick":true,
		"makespans":{"contend/serial/p8/threads64":800000},
		"metrics":{"sim.lock.wait_cycles":1000,"sim.lock.contended":10}}`)
	new := write("new.json", `{"schema":"amplify-bench/7","quick":true,
		"makespans":{"contend/serial/p8/threads64":1000000},
		"metrics":{"sim.lock.wait_cycles":9000,"sim.lock.contended":80}}`)

	var outs [2][]byte
	for i, jobs := range []string{"1", "8"} {
		out, err := exec.Command(filepath.Join(bin, "amplifybench"),
			"-explain", "-j", jobs, old, new).Output()
		if err != nil {
			t.Fatalf("amplifybench -explain -j %s: %v\n%s", jobs, err, out)
		}
		outs[i] = out
	}
	if string(outs[0]) != string(outs[1]) {
		t.Errorf("explain report differs between -j1 and -j8:\n--- j1 ---\n%s--- j8 ---\n%s", outs[0], outs[1])
	}
	text := string(outs[0])
	if !strings.Contains(text, "makespan contend/serial/p8/threads64") {
		t.Errorf("regressed cell not named:\n%s", text)
	}
	// serial.global must rank in the top-3 attribution lines.
	top := ""
	for _, line := range strings.Split(text, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "1.") || strings.HasPrefix(trimmed, "2.") || strings.HasPrefix(trimmed, "3.") {
			top += trimmed + "\n"
		}
	}
	if !strings.Contains(top, "serial.global") {
		t.Errorf("serial.global not in top-3 attributions:\n%s", text)
	}

	// JSON form parses and carries the same culprit.
	out, err := exec.Command(filepath.Join(bin, "amplifybench"),
		"-explain", "-json", old, new).Output()
	if err != nil {
		t.Fatalf("amplifybench -explain -json: %v\n%s", err, out)
	}
	var ex struct {
		Schema string `json:"schema"`
		Cells  []struct {
			Attributions []struct {
				Kind string `json:"kind"`
				Name string `json:"name"`
			} `json:"attributions"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(out, &ex); err != nil {
		t.Fatalf("-explain -json not JSON: %v\n%s", err, out)
	}
	if ex.Schema != "amplify-explain/1" || len(ex.Cells) != 1 {
		t.Errorf("explain JSON = %+v", ex)
	}

	// A host-benchmark report is rejected with a clear error.
	host := write("host.json", `{"schema":"amplify-hostbench/1","benchmarks":[]}`)
	if out, err := exec.Command(filepath.Join(bin, "amplifybench"), "-explain", old, host).CombinedOutput(); err == nil {
		t.Errorf("-explain accepted a host-bench report:\n%s", out)
	}
}

// TestCLISpansAndStderrDiagnostics covers the pipeline span stream and
// the stdout-purity satellite: -spans writes the span JSONL (with the
// vm phases nested under the root), -metrics - and -spans - go to
// stderr, and none of it perturbs the program's stdout or makespan.
func TestCLISpansAndStderrDiagnostics(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTools(t)
	dir := t.TempDir()
	srcPath := filepath.Join(dir, "prog.mcc")
	if err := os.WriteFile(srcPath, []byte(cliProgram), 0o644); err != nil {
		t.Fatal(err)
	}

	// Baseline metrics without any span/metrics flags.
	plainMetrics := filepath.Join(dir, "plain.json")
	if out, err := exec.Command(filepath.Join(bin, "mccrun"), "-amplify", "-metrics", plainMetrics, srcPath).CombinedOutput(); err != nil {
		t.Fatalf("mccrun -metrics: %v\n%s", err, out)
	}

	// Full observability run: spans to file, metrics to stderr, trace
	// with the host track. Stdout must stay exactly the program output.
	spansPath := filepath.Join(dir, "spans.jsonl")
	tracePath := filepath.Join(dir, "trace.json")
	cmd := exec.Command(filepath.Join(bin, "mccrun"), "-amplify",
		"-spans", spansPath, "-metrics", "-", "-trace-out", tracePath, srcPath)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	if err != nil {
		t.Fatalf("mccrun spans run: %v\n%s", err, stderr.String())
	}
	if string(stdout) != "done\n" {
		t.Errorf("diagnostics leaked into stdout: %q", stdout)
	}
	if !strings.Contains(stderr.String(), `"span.simulate.count":1`) {
		t.Errorf("-metrics - snapshot missing span counters on stderr:\n%s", stderr.String())
	}

	spans, err := os.ReadFile(spansPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"id":"mccrun"`, `"id":"mccrun/read"`,
		`"id":"mccrun/amplify"`, `"id":"mccrun/parse"`, `"id":"mccrun/compile"`, `"id":"mccrun/simulate"`} {
		if !strings.Contains(string(spans), want) {
			t.Errorf("span stream missing %s:\n%s", want, spans)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(string(spans)), "\n") {
		if !json.Valid([]byte(line)) {
			t.Fatalf("span line not JSON: %s", line)
		}
	}

	// The Chrome trace carries the host track next to the virtual CPUs.
	trace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(trace), `"cat":"host"`) || !strings.Contains(string(trace), `"mccrun/simulate"`) {
		t.Errorf("Chrome trace missing the host span track: %.200s", trace)
	}

	// Observation left the simulated numbers untouched: the makespan in
	// the stderr metrics snapshot equals the plain run's.
	var plain, observed map[string]int64
	raw, err := os.ReadFile(plainMetrics)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &plain); err != nil {
		t.Fatal(err)
	}
	// The vet analysis prints to stderr before the metrics snapshot, so
	// the JSON object is the last chunk of the stream.
	stderrJSON := stderr.String()
	if i := strings.LastIndex(stderrJSON, `{"`); i >= 0 {
		stderrJSON = stderrJSON[i:]
	}
	if err := json.Unmarshal([]byte(stderrJSON), &observed); err != nil {
		t.Fatalf("stderr metrics not JSON: %v\n%s", err, stderr.String())
	}
	if plain["makespan"] == 0 || plain["makespan"] != observed["makespan"] {
		t.Errorf("spans/metrics observation changed the makespan: plain %d, observed %d",
			plain["makespan"], observed["makespan"])
	}

	// amplify -spans traces the pre-processor phases.
	ampSpans := filepath.Join(dir, "amp-spans.jsonl")
	if out, err := exec.Command(filepath.Join(bin, "amplify"), "-spans", ampSpans,
		"-o", filepath.Join(dir, "out.mcc"), srcPath).CombinedOutput(); err != nil {
		t.Fatalf("amplify -spans: %v\n%s", err, out)
	}
	ampOut, err := os.ReadFile(ampSpans)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"id":"amplify"`, `"id":"amplify/read"`, `"id":"amplify/rewrite"`, `"id":"amplify/write"`} {
		if !strings.Contains(string(ampOut), want) {
			t.Errorf("amplify span stream missing %s:\n%s", want, ampOut)
		}
	}
}

// TestCLITraceStdin: mcctrace analyze/replay accept - to read the
// binary trace from stdin, so recorded runs pipe straight through.
func TestCLITraceStdin(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTools(t)
	dir := t.TempDir()
	srcPath := filepath.Join(dir, "prog.mcc")
	if err := os.WriteFile(srcPath, []byte(cliProgram), 0o644); err != nil {
		t.Fatal(err)
	}
	tracePath := filepath.Join(dir, "prog.trace")
	if out, err := exec.Command(filepath.Join(bin, "mccrun"), "-record-trace", tracePath, srcPath).CombinedOutput(); err != nil {
		t.Fatalf("mccrun -record-trace: %v\n%s", err, out)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(filepath.Join(bin, "mcctrace"), "analyze", "-")
	cmd.Stdin = strings.NewReader(string(raw))
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("mcctrace analyze -: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "size histogram") || !strings.Contains(string(out), "top sites") {
		t.Errorf("analyze - output wrong:\n%s", out)
	}

	cmd = exec.Command(filepath.Join(bin, "mcctrace"), "replay", "-alloc", "hoard", "-")
	cmd.Stdin = strings.NewReader(string(raw))
	out, err = cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("mcctrace replay -: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "hoard") || !strings.Contains(string(out), "makespan") {
		t.Errorf("replay - output wrong:\n%s", out)
	}

	// Garbage on stdin is a decode error, not a corpus fallback.
	cmd = exec.Command(filepath.Join(bin, "mcctrace"), "analyze", "-")
	cmd.Stdin = strings.NewReader("not a trace")
	if out, err := cmd.CombinedOutput(); err == nil {
		t.Errorf("mcctrace analyze - accepted garbage:\n%s", out)
	}
}

// TestCLITraceBoundLimitsOnlyTheTimeline: -trace N bounds the event
// timeline printed to stderr and nothing else — the -trace-jsonl and
// -profile-out artifacts of the same run are byte-identical to a run
// without -trace.
func TestCLITraceBoundLimitsOnlyTheTimeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTools(t)
	dir := t.TempDir()
	src := filepath.Join(dir, "prog.mcc")
	if err := os.WriteFile(src, []byte(observeProgram), 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(name string, extra ...string) (stderr string) {
		t.Helper()
		args := append([]string{"-alloc", "ptmalloc",
			"-trace-jsonl", filepath.Join(dir, name+".jsonl"),
			"-profile-out", filepath.Join(dir, name+".folded")}, extra...)
		cmd := exec.Command(filepath.Join(bin, "mccrun"), append(args, src)...)
		var errb strings.Builder
		cmd.Stderr = &errb
		if err := cmd.Run(); err != nil {
			t.Fatalf("mccrun %v: %v\n%s", args, err, errb.String())
		}
		return errb.String()
	}
	run("full")
	timeline := run("bounded", "-trace", "10")
	for _, ext := range []string{".jsonl", ".folded", ".folded.locks"} {
		full, err := os.ReadFile(filepath.Join(dir, "full"+ext))
		if err != nil {
			t.Fatal(err)
		}
		bounded, err := os.ReadFile(filepath.Join(dir, "bounded"+ext))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(full, bounded) {
			t.Errorf("-trace 10 changed the %s artifact (%d bytes, %d without -trace)", ext, len(bounded), len(full))
		}
	}
	events, err := os.ReadFile(filepath.Join(dir, "bounded.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	n := bytes.Count(events, []byte("\n"))
	if n <= 10 {
		t.Errorf("-trace-jsonl wrote %d events, want the whole run", n)
	}
	locks, err := os.ReadFile(filepath.Join(dir, "bounded.folded.locks"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(locks), "ptmalloc.arena0") {
		t.Errorf("lock table lost the arena lock:\n%s", locks)
	}
	lines := strings.Split(strings.TrimSpace(timeline), "\n")
	if len(lines) != 11 || lines[10] != fmt.Sprintf("(%d further events dropped)", n-10) {
		t.Errorf("stderr timeline is not 10 events plus the dropped count of %d:\n%s", n-10, timeline)
	}
}
