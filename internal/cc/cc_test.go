package cc

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// Lex tokenizes the whole input, as the parser does before parsing.
func Lex(src string) ([]Token, error) {
	toks, err := lexAppend(make([]Token, 0, tokenCap(src)), src)
	if err != nil {
		return nil, err
	}
	return toks, nil
}

const carSrc = `
class Engine {
public:
    Engine(int p) {
        power = p;
    }
    ~Engine() {
    }
    int rate() {
        return power * 2;
    }
private:
    int power;
};

class Car {
public:
    Car(int p) {
        engine = new Engine(p);
        serial = new char[16];
        weight = 1200;
    }
    ~Car() {
        delete engine;
        delete[] serial;
    }
    int drive(int km) {
        int e = engine->rate();
        return e * km + weight;
    }
private:
    Engine* engine;
    char* serial;
    int weight;
};

void work(int n) {
    for (int i = 0; i < n; i = i + 1) {
        Car* c = new Car(i);
        c->drive(10);
        delete c;
    }
}

int main() {
    spawn work(5);
    spawn work(5);
    join;
    print("done");
    return 0;
}
`

func parseCar(t *testing.T) *Program {
	t.Helper()
	prog, err := Parse(carSrc)
	if err != nil {
		t.Fatal(err)
	}
	if err := Analyze(prog); err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestParseCarProgram(t *testing.T) {
	prog := parseCar(t)
	if len(prog.Classes) != 2 {
		t.Fatalf("classes = %d, want 2", len(prog.Classes))
	}
	car := prog.Classes["Car"]
	if car == nil {
		t.Fatal("Car class missing")
	}
	if len(car.Fields) != 3 {
		t.Fatalf("Car fields = %d, want 3", len(car.Fields))
	}
	if car.Size != 12 {
		t.Fatalf("Car size = %d, want 12", car.Size)
	}
	if car.Ctor() == nil || car.Dtor() == nil {
		t.Fatal("Car missing ctor or dtor")
	}
	if m := car.MethodByName("drive"); m == nil || len(m.Params) != 1 {
		t.Fatal("Car::drive missing or wrong arity")
	}
	if !prog.UsesThreads {
		t.Error("UsesThreads should be true (program spawns)")
	}
}

func TestFieldOffsets(t *testing.T) {
	prog := parseCar(t)
	car := prog.Classes["Car"]
	for i, f := range car.Fields {
		if f.Offset != int64(i)*FieldSize {
			t.Errorf("field %s offset = %d, want %d", f.Name, f.Offset, i*FieldSize)
		}
	}
}

func TestIdentResolution(t *testing.T) {
	prog := parseCar(t)
	car := prog.Classes["Car"]
	ctor := car.Ctor()
	// First statement: engine = new Engine(p); engine resolves to field.
	as := ctor.Body.Stmts[0].(*ExprStmt).X.(*AssignExpr)
	id := as.LHS.(*Ident)
	if id.Kind != FieldIdent || id.Field == nil || id.Field.Name != "engine" {
		t.Fatalf("engine ident resolved to kind=%d field=%v", id.Kind, id.Field)
	}
}

func TestRoundTripStable(t *testing.T) {
	prog := parseCar(t)
	out1 := Print(prog)
	prog2, err := Parse(out1)
	if err != nil {
		t.Fatalf("reparse failed: %v\n%s", err, out1)
	}
	if err := Analyze(prog2); err != nil {
		t.Fatalf("reanalyze failed: %v", err)
	}
	out2 := Print(prog2)
	if out1 != out2 {
		t.Fatalf("print not stable:\n--- first ---\n%s\n--- second ---\n%s", out1, out2)
	}
}

func TestOperatorOverloadsParsed(t *testing.T) {
	src := `
class Node {
public:
    Node() {
    }
    void* operator new(uint n) {
        return __pool_alloc(Node);
    }
    void operator delete(void* p) {
        __pool_free(Node, p);
    }
private:
    int x;
};

int main() {
    Node* n = new Node();
    delete n;
    return 0;
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := Analyze(prog); err != nil {
		t.Fatal(err)
	}
	node := prog.Classes["Node"]
	if node.OperatorNew() == nil || node.OperatorDelete() == nil {
		t.Fatal("operator new/delete not parsed")
	}
	out := Print(prog)
	for _, want := range []string{"operator new", "operator delete", "__pool_alloc(Node)", "__pool_free(Node, p)"} {
		if !strings.Contains(out, want) {
			t.Errorf("printed output missing %q:\n%s", want, out)
		}
	}
}

func TestPlacementNewAndDtorCall(t *testing.T) {
	src := `
class Child {
public:
    Child() {
    }
    ~Child() {
    }
private:
    int v;
};

class Root {
public:
    Root() {
        left = new(leftShadow) Child();
    }
    ~Root() {
        if (left) {
            left->~Child();
            leftShadow = left;
        }
    }
private:
    Child* left;
    Child* leftShadow;
};

int main() {
    return 0;
}
`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := Analyze(prog); err != nil {
		t.Fatal(err)
	}
	out := Print(prog)
	for _, want := range []string{"new(leftShadow) Child()", "left->~Child()", "leftShadow = left"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCommentsSkipped(t *testing.T) {
	src := `
// leading comment
int main() {
    /* block
       comment */
    return 0; // trailing
}
`
	if _, err := Parse(src); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src, wantErr string }{
		{"unterminated block comment", "/* foo", "unterminated block comment"},
		{"unterminated string", `int main() { print("x; }`, "unterminated string"},
		{"bad char", "int main() { @ }", "unexpected character"},
		{"missing semi", "int main() { return 0 }", "expected ';'"},
		{"bad operator decl", "class A { void* operator plus() {} }; int main() { return 0; }", "expected 'new' or 'delete'"},
		{"dtor name mismatch", "class A { ~B() {} }; int main() { return 0; }", "destructor ~B in class A"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestSemaErrors(t *testing.T) {
	cases := []struct{ name, src, wantErr string }{
		{"undefined ident", "int main() { return x; }", "undefined identifier x"},
		{"unknown function", "int main() { foo(); return 0; }", "unknown function foo"},
		{"unknown class new", "int main() { int x = 0; x = 1; new Foo(); return 0; }", "new of unknown class Foo"},
		{"delete non-pointer", "int main() { int x = 0; delete x; return 0; }", "delete of non-pointer"},
		{"spawn unknown", "int main() { spawn nope(); return 0; }", "spawn of unknown function"},
		{"assign to literal", "int main() { 3 = 4; return 0; }", "cannot assign"},
		{"dup field", "class A { int x; int x; }; int main() { return 0; }", "duplicate field"},
		{"dup class", "class A { int x; }; class A { int y; }; int main() { return 0; }", "duplicate class"},
		{"arity", "void f(int a) { } int main() { f(); return 0; }", "0 args, want 1"},
		{"bad assign types", "class A { int x; }; int main() { A* a = null; int y = 0; y = a; return 0; }", "cannot assign A*"},
		{"this outside method", "int main() { return this; }", "'this' outside a method"},
		{"unknown field", "class A { int x; A() { } }; int main() { A* a = new A(); a->y; return 0; }", "no field y"},
		{"unknown method", "class A { int x; A() { } }; int main() { A* a = new A(); a->m(); return 0; }", "no method m"},
		{"intrinsic function", "void realloc(int x) { } int main() { return 0; }", "collides with a runtime intrinsic"},
		{"intrinsic method pool_alloc", "class A { void __pool_alloc() { } }; int main() { return 0; }", "method A::__pool_alloc collides with a runtime intrinsic"},
		{"intrinsic method realloc", "class A { int realloc(int n) { return n; } }; int main() { return 0; }", "method A::realloc collides with a runtime intrinsic"},
		{"intrinsic method shadow_save", "class A { void __shadow_save() { } }; int main() { return 0; }", "method A::__shadow_save collides with a runtime intrinsic"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := Parse(tc.src)
			if err == nil {
				err = Analyze(prog)
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("err = %v, want containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestLexerPositions(t *testing.T) {
	toks, err := Lex("int main\n  ()")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos != (Pos{1, 1}) {
		t.Errorf("int at %v", toks[0].Pos)
	}
	if toks[1].Pos != (Pos{1, 5}) {
		t.Errorf("main at %v", toks[1].Pos)
	}
	if toks[2].Pos != (Pos{2, 3}) {
		t.Errorf("( at %v", toks[2].Pos)
	}
}

func TestIntLiteralBounds(t *testing.T) {
	toks, err := Lex("9223372036854775807")
	if err != nil || toks[0].Int != math.MaxInt64 {
		t.Fatalf("2^63-1: toks %v, err %v", toks, err)
	}
	// 2^63 overflows by one; the last two wrap a uint64 to 1 and 4,
	// which an after-the-fact sign check misses.
	for _, src := range []string{"9223372036854775808", "18446744073709551617", "18446744073709551620"} {
		if _, err := Lex(src); err == nil || !strings.Contains(err.Error(), "integer literal overflows int64") {
			t.Errorf("Lex(%s) err = %v, want overflow", src, err)
		}
	}
	if _, err := Parse("int main() { return 18446744073709551620; }"); err == nil {
		t.Error("program returning a wrapping literal parsed")
	}
}

func TestLexRandomInputNeverPanics(t *testing.T) {
	prop := func(s string) bool {
		defer func() {
			if recover() != nil {
				t.Errorf("lexer panicked on %q", s)
			}
		}()
		toks, err := Lex(s)
		if err != nil {
			return true
		}
		return len(toks) > 0 && toks[len(toks)-1].Kind == EOF
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestParseRandomTokensNeverPanics(t *testing.T) {
	// Fuzz-ish: random printable programs must produce errors, not panics.
	prop := func(s string) bool {
		defer func() {
			if recover() != nil {
				t.Errorf("parser panicked on %q", s)
			}
		}()
		prog, err := Parse(s)
		if err == nil {
			_ = Analyze(prog)
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPrecedencePrinting(t *testing.T) {
	src := `int main() { int x = 1 + 2 * 3; int y = (1 + 2) * 3; return x - y; }`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := Analyze(prog); err != nil {
		t.Fatal(err)
	}
	out := Print(prog)
	// Reparse and evaluate structure: 1 + (2*3) vs (1+2)*3 distinct.
	prog2, err := Parse(out)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, out)
	}
	main := prog2.Decls[0].(*FuncDecl)
	x := main.Body.Stmts[0].(*VarDecl).Init.(*Binary)
	if x.Op != Plus {
		t.Errorf("x root op = %v, want +", x.Op)
	}
	y := main.Body.Stmts[1].(*VarDecl).Init.(*Binary)
	if y.Op != Star {
		t.Errorf("y root op = %v, want *", y.Op)
	}
}

// TestPrecedenceClimbing pins binding strength and left associativity
// for every pair of binary operators, then unary, postfix and
// assignment around them. The printer parenthesizes every nested
// operator, so its output spells out the tree the parser built.
func TestPrecedenceClimbing(t *testing.T) {
	levels := [][]string{{"||"}, {"&&"}, {"==", "!="}, {"<", "<=", ">", ">="}, {"+", "-"}, {"*", "/", "%"}}
	type tc struct{ src, want string }
	var cases []tc
	for l1, ops1 := range levels {
		for l2, ops2 := range levels {
			for _, op1 := range ops1 {
				for _, op2 := range ops2 {
					src := "a " + op1 + " b " + op2 + " c"
					want := "(a " + op1 + " b) " + op2 + " c"
					if l1 < l2 {
						want = "a " + op1 + " (b " + op2 + " c)"
					}
					cases = append(cases, tc{src, want})
				}
			}
		}
	}
	cases = append(cases,
		tc{"a && b == c < d - e * f", "a && (b == (c < (d - (e * f))))"},
		tc{"a * b + c * d == e || f", "(((a * b) + (c * d)) == e) || f"},
		tc{"-a * !b - -c", "((-a) * (!b)) - (-c)"},
		tc{"a = b = c || d", "a = b = c || d"},
		tc{"(a + b) * c->f(d + e)[g]", "(a + b) * c->f(d + e)[g]"},
	)
	for _, tc := range cases {
		prog, err := Parse("int main() { return " + tc.src + "; }")
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		p := &printer{}
		p.expr(prog.Decls[0].(*FuncDecl).Body.Stmts[0].(*Return).X)
		if got := p.b.String(); got != tc.want {
			t.Errorf("%s parsed as %s, want %s", tc.src, got, tc.want)
		}
	}
}

func TestForLoopForms(t *testing.T) {
	srcs := []string{
		"int main() { for (;;) { return 0; } }",
		"int main() { for (int i = 0; i < 3; i = i + 1) { } return 0; }",
		"int main() { int i = 0; for (i = 1; i < 3; i = i + 1) { } return 0; }",
	}
	for _, src := range srcs {
		prog, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if err := Analyze(prog); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if _, err := Parse(Print(prog)); err != nil {
			t.Fatalf("roundtrip %s: %v", src, err)
		}
	}
}
