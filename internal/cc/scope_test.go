package cc_test

import (
	"fmt"
	"strings"
	"testing"

	. "amplify/internal/cc"
	"amplify/internal/vm"
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

// repeatedMembers declares a constructor and a method twice, which
// sema rejects as C++ does; it is also a FuzzParse seed.
const repeatedMembers = `class A { public: A() { v = 1; } A() { v = 2; } int m() { return 10; } int m() { return 20; } int v; };
int main() { A* a = new A(); print(a->m(), a->v); delete a; return 0; }`

// TestSemaScopeRules pins the lexical scoping sema enforces: one name
// per scope, the parameters in a scope of their own, every block (a
// for statement included) opening a new one, and one definition of
// each member function of a class. For accepted programs
// it pins the resolutions sema records: each declaration's own frame
// slot, the slot every use reads, each body's slot count, which the VM
// compiles frames to, and the method every call binds to.
func TestSemaScopeRules(t *testing.T) {
	reject := []struct{ name, src, want string }{
		{"local redeclared", "int main() { int a = 1; int a = 2; return a; }", "redeclaration of a"},
		{"local redeclared in a nested block", "int main() { { int* p = null; char* p = null; } return 0; }", "redeclaration of p"},
		{"parameter redeclared", "int f(int a, int a) { return a; } int main() { return f(1, 2); }", "redeclaration of a"},
		{"method parameter redeclared", "class A { public: A() { } int m(int a, int a) { return a; } }; int main() { return 0; }", "redeclaration of a"},
		{"repeated members", repeatedMembers, "1:34: redefinition of A::A"},
		{"method redefined", "class A { public: A() { } int m() { return 1; } int n() { return 2; } int m() { return 3; } }; int main() { return 0; }", "redefinition of A::m"},
		{"destructor redefined", "class A { public: A() { } ~A() { } ~A() { } }; int main() { return 0; }", "redefinition of A::~A"},
		{"operator new redefined", "class A { public: A() { } void* operator new(uint n) { return null; } void* operator new(uint n) { return null; } }; int main() { return 0; }", "redefinition of A::operator new"},
		{"operator delete redefined", "class A { public: A() { } void operator delete(void* p) { } void operator delete(void* p) { } }; int main() { return 0; }", "redefinition of A::operator delete"},
	}
	for _, tc := range reject {
		t.Run("reject/"+tc.name, func(t *testing.T) {
			err := Analyze(MustParse(tc.src))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
	// body names the body traced; trace lists its bindings in source
	// order: a=0 declares a in slot 0, a@0 reads or writes slot 0, and
	// ->A::m is a call bound to A's method m.
	accept := []struct{ name, src, body, trace string }{
		{"nested block shadows", "int main() { int a = 1; { int a = 2; print(a); } return a; }",
			"main", "a=0 a=1 a@1 a@0"},
		{"body local shadows a parameter", "int f(int a) { int a = 2; return a; } int main() { return f(1); }",
			"f", "a=0 a=1 a@1"},
		{"method body local shadows a parameter", "class A { public: A() { } int m(int a) { int a = a + 1; return a; } }; int main() { return 0; }",
			"A::m", "a=0 a@0 a=1 a@1"},
		{"for-init name declared again after the loop", "int main() { for (int i = 0; i < 3; i = i + 1) { } int i = 5; return i; }",
			"main", "i=0 i@0 i@0 i@0 i=1 i@1"},
		{"sibling blocks", "int main() { { int a = 1; } { int a = 2; } return 0; }",
			"main", "a=0 a=1"},
		{"method call binds statically", "class A { public: A() { } int m(A* a) { return 1; } }; class B { public: B() { } int m() { return 2; } }; int main() { A* p = new A(); B* q = new B(); return p->m(p) + q->m(); }",
			"main", "p=0 q=1 p@0 p@0 ->A::m q@1 ->B::m"},
	}
	for _, tc := range accept {
		t.Run("accept/"+tc.name, func(t *testing.T) {
			prog := MustParse(tc.src)
			if err := Analyze(prog); err != nil {
				t.Fatal(err)
			}
			compiled, err := vm.CompileOpts(prog, vm.Options{NoOpt: true})
			if err != nil {
				t.Fatal(err)
			}
			fnSlots := map[string]int{}
			for _, fn := range compiled.Fns {
				fnSlots[fn.Name] = fn.Slots
			}
			traced := false
			for _, b := range bodies(prog) {
				if fnSlots[b.name] != b.slots {
					t.Errorf("%s: sema counts %d slots, the VM frame has %d", b.name, b.slots, fnSlots[b.name])
				}
				if b.name != tc.body {
					continue
				}
				traced = true
				var tr slotTrace
				for _, p := range b.params {
					tr.add("%s=%d", p.Name, p.Slot)
				}
				tr.stmt(b.body)
				if got := strings.Join(tr, " "); got != tc.trace {
					t.Errorf("%s: trace %q, want %q", b.name, got, tc.trace)
				}
				if decls := strings.Count(tc.trace, "="); b.slots != decls {
					t.Errorf("%s: %d slots for %d declarations", b.name, b.slots, decls)
				}
			}
			if !traced {
				t.Fatalf("no body %s", tc.body)
			}
		})
	}
}

// body is one function or method body and what sema recorded for it.
type body struct {
	name   string
	params []*Param
	body   *Block
	slots  int
}

// bodies lists a program's bodies under the VM's function names.
func bodies(prog *Program) []body {
	var out []body
	for _, d := range prog.Decls {
		switch d := d.(type) {
		case *FuncDecl:
			out = append(out, body{d.Name, d.Params, d.Body, d.Slots})
		case *ClassDecl:
			for _, m := range d.Methods {
				out = append(out, body{m.FullName(), m.Params, m.Body, m.Slots})
			}
		}
	}
	return out
}

// slotTrace renders a body's local declarations, local uses and method
// calls in source order.
type slotTrace []string

func (tr *slotTrace) add(format string, args ...any) {
	*tr = append(*tr, fmt.Sprintf(format, args...))
}

func (tr *slotTrace) stmt(s Stmt) {
	switch s := s.(type) {
	case *Block:
		for _, sub := range s.Stmts {
			tr.stmt(sub)
		}
	case *VarDecl:
		tr.expr(s.Init)
		tr.add("%s=%d", s.Name, s.Slot)
	case *ExprStmt:
		tr.expr(s.X)
	case *If:
		tr.expr(s.Cond)
		tr.stmt(s.Then)
		if s.Else != nil {
			tr.stmt(s.Else)
		}
	case *While:
		tr.expr(s.Cond)
		tr.stmt(s.Body)
	case *For:
		if s.Init != nil {
			tr.stmt(s.Init)
		}
		tr.expr(s.Cond)
		tr.expr(s.Post)
		tr.stmt(s.Body)
	case *Return:
		tr.expr(s.X)
	}
}

func (tr *slotTrace) expr(e Expr) {
	switch e := e.(type) {
	case *Ident:
		if e.Kind == LocalIdent {
			tr.add("%s@%d", e.Name, e.Slot)
		}
	case *Paren:
		tr.expr(e.X)
	case *Unary:
		tr.expr(e.X)
	case *Binary:
		tr.expr(e.X)
		tr.expr(e.Y)
	case *AssignExpr:
		tr.expr(e.LHS)
		tr.expr(e.RHS)
	case *Call:
		for _, a := range e.Args {
			tr.expr(a)
		}
	case *MethodCall:
		tr.expr(e.Recv)
		for _, a := range e.Args {
			tr.expr(a)
		}
		if e.Method == nil {
			tr.add("->%s?", e.Name)
		} else {
			tr.add("->%s::%s", e.Method.Class.Name, e.Method.Name)
		}
	}
}
