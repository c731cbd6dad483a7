package vet

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"amplify/internal/cc"
)

// FuzzVet feeds arbitrary programs through the analyzer: anything the
// front end accepts must vet without panicking, and every diagnostic
// must carry a valid source position, a known code and a consistent
// severity. Seeds mirror internal/cc's FuzzParse corpus.
func FuzzVet(f *testing.F) {
	seeds := []string{
		"",
		"int main() { return 0; }",
		"class A { public: A() { } ~A() { } int x; }; int main() { A* a = new A(); delete a; return a->x; }",
		"class B { B(int n) { b = new char[n]; } ~B() { delete[] b; } char* b; }; int main() { return 0; }",
		"void w(int i) { print(i); } int main() { spawn w(1); join; return 0; }",
		"int main() { for (int i = 0; i < 3; i = i + 1) { while (i) { i = i - 1; } } return 0; }",
		"int main() { return 1 + 2 * (3 - 4) / 5 % 6; }",
		"class C { C() { x = new(xShadow) C(); } ~C() { x->~C(); } C* x; C* xShadow; }; int main() { return 0; }",
		`int main() { print("hi\n\t\\", 1 && 0 || !2); return 0; }`,
		"/* comment */ int main() { // line\n return 0; }",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := cc.Parse(src)
		if err != nil {
			return
		}
		if err := cc.Analyze(prog); err != nil {
			return
		}
		res := Check(prog)
		for _, d := range res.Diags {
			if d.Pos.Line < 1 || d.Pos.Col < 1 {
				t.Errorf("diagnostic without a valid position: %+v", d)
			}
			name, known := codeNames[d.Code]
			if !known || name == "" {
				t.Errorf("diagnostic with unknown code: %+v", d)
			}
			if d.Severity != codeSeverity[d.Code] {
				t.Errorf("severity mismatch for %s: %+v", d.Code, d)
			}
		}
		// Eligibility must agree with the diagnostics it folds.
		for _, e := range res.Ineligible() {
			if e.Class == "" || e.Reason == "" {
				t.Errorf("malformed exclusion %+v", e)
			}
		}
		// The interprocedural layer must hold the same invariants: a
		// verdict for every site, valid positions, renderable output.
		rep := Escape(prog)
		for _, s := range rep.Sites {
			if s.Class == "" || s.Func == "" || s.Pos.Line < 1 || s.Pos.Col < 1 {
				t.Errorf("malformed escape site %+v", s)
			}
			if s.Escape != EscNone && s.Escape != EscThread && s.Escape != EscShared {
				t.Errorf("escape site with unknown class %+v", s)
			}
			if !s.Promote && s.Reason == "" {
				t.Errorf("unpromoted site without a reason: %+v", s)
			}
		}
		for _, d := range rep.Diags {
			if d.Severity != codeSeverity[d.Code] {
				t.Errorf("escape severity mismatch for %s: %+v", d.Code, d)
			}
		}
		// Both results carry the V008 findings of the one analysis run
		// they share on this tree.
		if c, e := diagsWithCode(res.Diags, CodeInterprocLeak), diagsWithCode(rep.Diags, CodeInterprocLeak); !reflect.DeepEqual(c, e) {
			t.Errorf("V008 findings differ: Check %v, Escape %v", c, e)
		}
		_ = rep.String()
		if _, err := rep.JSON("fuzz"); err != nil {
			t.Errorf("escape report JSON failed: %v", err)
		}
	})
}

// TestFuzzCorpusSeeds pins the committed corpus under
// testdata/fuzz/FuzzVet: every vNNN-* file must be a valid `go test
// fuzz v1` input whose program fires the diagnostic named by its file
// name — so the seeds stay honest reproducers as the analyzer evolves.
func TestFuzzCorpusSeeds(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzVet")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "v0") {
			continue
		}
		code := strings.ToUpper(name[:4]) // v001-... -> V001
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitN(strings.TrimSpace(string(raw)), "\n", 2)
		if len(lines) != 2 || lines[0] != "go test fuzz v1" {
			t.Fatalf("%s: not a go fuzz v1 corpus file", name)
		}
		quoted := strings.TrimSuffix(strings.TrimPrefix(lines[1], "string("), ")")
		src, err := strconv.Unquote(quoted)
		if err != nil {
			t.Fatalf("%s: bad corpus encoding: %v", name, err)
		}
		res, err := CheckSource(src)
		if err != nil {
			t.Fatalf("%s: program no longer parses: %v", name, err)
		}
		found := false
		for _, d := range res.Diags {
			if d.Code == code {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s: diagnostic %s no longer fires:\n%s", name, code, res.String())
		}
		seen++
	}
	if seen != 8 {
		t.Fatalf("want 8 committed V001-V008 reproducers, found %d", seen)
	}
}
