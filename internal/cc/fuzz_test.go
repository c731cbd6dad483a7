package cc

import (
	"strings"
	"testing"
)

// parseSeeds is the starting corpus of FuzzParse; the differential
// tests in diff_test.go also lex and print them.
var parseSeeds = []string{
	"",
	"int main() { return 0; }",
	"class A { public: A() { } ~A() { } int x; }; int main() { A* a = new A(); delete a; return a->x; }",
	"class B { B(int n) { b = new char[n]; } ~B() { delete[] b; } char* b; }; int main() { return 0; }",
	"void w(int i) { print(i); } int main() { spawn w(1); join; return 0; }",
	"int main() { for (int i = 0; i < 3; i = i + 1) { while (i) { i = i - 1; } } return 0; }",
	"int main() { return 1 + 2 * (3 - 4) / 5 % 6; }",
	"class C { C() { x = new(xShadow) C(); } ~C() { x->~C(); } C* x; C* xShadow; }; int main() { return 0; }",
	`int main() { print("hi\n\t\\", 1 && 0 || !2); return 0; }`,
	// A raw non-ASCII byte: the printer must write it back raw, since
	// the lexer reads no \x escape.
	"int main(){print(\"caf\xe9\");return 0;}",
	"/* comment */ int main() { // line\n return 0; }",
	"class D { public: D() { v = new int[4]; } int get(int i) { if (i < 0) { return -i; } else return v[i]; } int* v; }; int main() { D* d = new D(); return d->get(1) >= 0 != (2 <= 3); }",
	// A constructor and a method declared twice: sema rejects the
	// redefinitions, as C++ does.
	"class A { public: A() { v = 1; } A() { v = 2; } int m() { return 10; } int m() { return 20; } int v; };\nint main() { A* a = new A(); print(a->m(), a->v); delete a; return 0; }",
}

// FuzzParse feeds arbitrary bytes through the whole front end: the
// lexer and parser must never panic, anything that parses must analyze
// or produce a positioned error, and anything that analyzes must
// print to source that re-parses and re-analyzes.
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			if !strings.Contains(err.Error(), ":") {
				t.Errorf("error without position: %v", err)
			}
			return
		}
		if err := Analyze(prog); err != nil {
			return
		}
		out := Print(prog)
		prog2, err := Parse(out)
		if err != nil {
			t.Fatalf("printed source does not parse: %v\n%s", err, out)
		}
		if err := Analyze(prog2); err != nil {
			t.Fatalf("printed source does not analyze: %v\n%s", err, out)
		}
	})
}
