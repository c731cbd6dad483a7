package cc

import (
	"strings"
	"testing"
)

// TestScopesShadowAndPop checks the binding stack itself: a nested
// scope shadows, a popped scope's names are gone, a name repeated in
// one scope is reported, and a looked-up binding can be written.
func TestScopesShadowAndPop(t *testing.T) {
	var s Scopes[int]
	s.Push()
	if !s.Declare("a", 1) || !s.Declare("b", 2) {
		t.Fatal("fresh names reported as redeclared")
	}
	if s.Declare("a", 3) {
		t.Fatal("same-scope redeclaration not reported")
	}
	s.Push()
	if !s.Declare("a", 4) {
		t.Fatal("shadowing in a nested scope reported as redeclared")
	}
	if v, ok := s.Lookup("a"); !ok || *v != 4 {
		t.Fatalf("inner a = %v, %v; want 4", v, ok)
	}
	v, _ := s.Lookup("b")
	*v = 5
	s.Pop()
	if v, ok := s.Lookup("a"); !ok || *v != 3 {
		t.Fatalf("outer a after pop = %v, %v; want the newest outer binding, 3", v, ok)
	}
	if v, _ := s.Lookup("b"); *v != 5 {
		t.Fatalf("b = %d after writing through Lookup, want 5", *v)
	}
	s.Reset()
	if _, ok := s.Lookup("a"); ok {
		t.Fatal("binding survived Reset")
	}
}

// TestSemaScopeRules pins the lexical scoping sema enforces: one name
// per scope, the parameters in a scope of their own, and every block
// (a for statement included) opening a new one.
func TestSemaScopeRules(t *testing.T) {
	reject := []struct{ name, src string }{
		{"local redeclared", "int main() { int a = 1; int a = 2; return a; }"},
		{"local redeclared in a nested block", "int main() { { int* p = null; char* p = null; } return 0; }"},
		{"parameter redeclared", "int f(int a, int a) { return a; } int main() { return f(1, 2); }"},
		{"method parameter redeclared", "class A { public: A() { } int m(int a, int a) { return a; } }; int main() { return 0; }"},
	}
	for _, tc := range reject {
		t.Run("reject/"+tc.name, func(t *testing.T) {
			err := Analyze(MustParse(tc.src))
			if err == nil || !strings.Contains(err.Error(), "redeclaration of") {
				t.Fatalf("err = %v, want a redeclaration error", err)
			}
		})
	}
	accept := []struct{ name, src string }{
		{"nested block shadows", "int main() { int a = 1; { int a = 2; print(a); } return a; }"},
		{"body local shadows a parameter", "int f(int a) { int a = 2; return a; } int main() { return f(1); }"},
		{"method body local shadows a parameter", "class A { public: A() { } int m(int a) { int a = 2; return a; } }; int main() { return 0; }"},
		{"for-init name declared again after the loop", "int main() { for (int i = 0; i < 3; i = i + 1) { } int i = 5; return i; }"},
		{"sibling blocks", "int main() { { int a = 1; } { int a = 2; } return 0; }"},
	}
	for _, tc := range accept {
		t.Run("accept/"+tc.name, func(t *testing.T) {
			if err := Analyze(MustParse(tc.src)); err != nil {
				t.Fatal(err)
			}
		})
	}
}
