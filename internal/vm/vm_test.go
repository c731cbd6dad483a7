package vm

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"amplify/internal/cc"
	"amplify/internal/core"
	"amplify/internal/interp"
	"amplify/internal/mccgen"
)

// analyze parses and analyzes src.
func analyze(src string) (*cc.Program, error) {
	prog, err := cc.Parse(src)
	if err == nil {
		err = cc.Analyze(prog)
	}
	return prog, err
}

// execute parses, analyzes and compiles src with opt, then runs it.
func execute(src string, opt Options, cfg Config) (Result, error) {
	prog, err := analyze(src)
	if err != nil {
		return Result{}, err
	}
	p, err := CompileOpts(prog, opt)
	if err != nil {
		return Result{}, err
	}
	return Run(p, cfg)
}

// interpret parses, analyzes and runs src on the reference engine.
func interpret(src string, cfg Config) (Result, error) {
	prog, err := analyze(src)
	if err != nil {
		return Result{}, err
	}
	return interp.Run(prog, cfg)
}

func run(t *testing.T, src string, cfg Config) Result {
	t.Helper()
	r, err := execute(src, Options{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestArithmeticAndControlFlow(t *testing.T) {
	r := run(t, `
int fib(int n) {
    if (n < 2) {
        return n;
    }
    return fib(n - 1) + fib(n - 2);
}

int main() {
    int s = 0;
    for (int i = 0; i < 10; i = i + 1) {
        if (i % 2 == 0 || i == 7) {
            s = s + fib(i);
        }
    }
    print("s", s, -s, !s);
    while (s > 40) {
        s = s - 1;
    }
    return s;
}
`, Config{})
	// fib: 0,1,1,2,3,5,8,13,21,34; evens i=0,2,4,6,8 -> 0+1+3+8+21=33; +fib(7)=13 -> 46
	if r.Output != "s 46 -46 0\n" {
		t.Errorf("output = %q", r.Output)
	}
	if r.ExitCode != 40 {
		t.Errorf("exit = %d, want 40", r.ExitCode)
	}
}

func TestObjectsPoolsAndShadows(t *testing.T) {
	src := `
class Leaf {
public:
    Leaf(int v) {
        val = v;
    }
    ~Leaf() {
    }
    int get() {
        return val;
    }
private:
    int val;
};

class Pairing {
public:
    Pairing(int n) {
        a = new Leaf(n);
        b = new Leaf(n * 2);
        buf = new char[8];
        buf[0] = n;
    }
    ~Pairing() {
        delete a;
        delete b;
        delete[] buf;
    }
    int sum() {
        return a->get() + b->get() + buf[0];
    }
private:
    Leaf* a;
    Leaf* b;
    char* buf;
};

int main() {
    int total = 0;
    for (int i = 0; i < 40; i = i + 1) {
        Pairing* p = new Pairing(i);
        total = total + p->sum();
        delete p;
    }
    print("total", total);
    return 0;
}
`
	plain := run(t, src, Config{})
	amped, _, err := core.Rewrite(src, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fast := run(t, amped, Config{})
	if plain.Output != fast.Output {
		t.Fatalf("amplified VM output differs: %q vs %q", plain.Output, fast.Output)
	}
	if fast.Alloc.Allocs >= plain.Alloc.Allocs {
		t.Errorf("amplified allocs %d >= plain %d", fast.Alloc.Allocs, plain.Alloc.Allocs)
	}
	if fast.PoolHits == 0 || fast.ShadowReuses == 0 {
		t.Errorf("pool hits %d, shadow reuses %d", fast.PoolHits, fast.ShadowReuses)
	}
}

func TestThreadsAndJoin(t *testing.T) {
	r := run(t, `
void w(int id) {
    __work(1000);
    print("w", id);
}

int main() {
    spawn w(1);
    spawn w(2);
    join;
    print("end");
    return 0;
}
`, Config{})
	if !strings.HasSuffix(r.Output, "end\n") {
		t.Errorf("join ordering broken: %q", r.Output)
	}
}

func TestScopedLocalsCompileCorrectly(t *testing.T) {
	// Nested scopes shadow properly (slot-resolved at compile time).
	r := run(t, `
int main() {
    int x = 1;
    {
        int x = 2;
        print("inner", x);
    }
    print("outer", x);
    for (int i = 0; i < 2; i = i + 1) {
        int y = i * 10;
        print("y", y);
    }
    return x;
}
`, Config{})
	want := "inner 2\nouter 1\ny 0\ny 10\n"
	if r.Output != want {
		t.Errorf("output = %q, want %q", r.Output, want)
	}
}

func TestVMRuntimeErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"null deref", `
class A { public: A() { } int x; };
int main() { A* a = null; return a->x; }`, "null pointer"},
		{"use after free", `
class A { public: A() { } int x; };
int main() { A* a = new A(); delete a; return a->x; }`, "use after free"},
		{"div zero", `int main() { int z = 0; return 1 / z; }`, "division by zero"},
		{"index", `int main() { int* a = new int[2]; return a[5]; }`, "out of range"},
		{"no main", `void f() { }`, "no main function"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := execute(tc.src, Options{}, Config{})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want containing %q", err, tc.want)
			}
		})
	}
}

func TestRuntimeErrorsCarryFaultContext(t *testing.T) {
	// Faults report the function, pc and opcode so a crashing generated
	// program can be matched against its disassembly.
	src := `
class A { public: A() { } int x; };
int helper(A* a) { return a->x; }
int main() { return helper(null); }`
	faults := make([]string, 2)
	for i, opt := range []Options{{}, {NoOpt: true}} {
		_, err := execute(src, opt, Config{})
		if err == nil {
			t.Fatalf("NoOpt=%v: expected a null-dereference fault", opt.NoOpt)
		}
		faults[i] = err.Error()
	}
	// The peephole pass fuses loadl+loadf into loadlf, so only the pc
	// and opcode may differ between -O and -no-opt: the message and the
	// faulting function must be the same text at both levels.
	const want = "vm: null pointer dereference (at helper@"
	if faults[0] != want+"0: loadlf)" || faults[1] != want+"1: loadf)" {
		t.Fatalf("fault context:\n-O:      %q\n-no-opt: %q\nwant both to start %q", faults[0], faults[1], want)
	}
}

// polyDispatchSrc funnels two receiver classes through one call site:
// the void* conversion lets an Odd reach p->tag() through an Even*.
const polyDispatchSrc = `
class Even {
public:
    Even() {
    }
    ~Even() {
    }
    int tag() {
        return 2;
    }
};

class Odd {
public:
    Odd() {
    }
    ~Odd() {
    }
    int tag() {
        return 3;
    }
};

void* pick(int i, void* a, void* b) {
    if (i % 2 == 0) {
        return a;
    }
    return b;
}

int main() {
    Even* e = new Even();
    Odd* o = new Odd();
    int s = 0;
    for (int i = 0; i < 20000; i = i + 1) {
        Even* p = pick(i, e, o);
        s = s + p->tag();
    }
    delete e;
    delete o;
    return s % 256;
}
`

// launderSrc opens a main that reaches a B through an A*.
const launderSrc = `class A { public: A() { x = 1; } int x; };
class B { public: B() { y = 2; } int y; };
int main() { B* b = new B(); void* v = b; A* a = v; `

// TestLaunderedReceiversFault: members bind statically, as C++ binds
// non-virtual members, so a receiver laundered through void* into a
// pointer to another class faults at the access, on the VM at both
// optimization levels and on the interpreter.
func TestLaunderedReceiversFault(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"method call", polyDispatchSrc, "method Even::tag called on Odd object"},
		{"field load", launderSrc + "return a->x; }", "field A::x accessed on B object"},
		{"field store", launderSrc + "a->x = 5; return 0; }", "field A::x accessed on B object"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, opt := range []Options{{}, {NoOpt: true}} {
				_, err := execute(tc.src, opt, Config{})
				if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "(at main@") {
					t.Errorf("vm (NoOpt=%v): err = %v, want %q at a main@pc site", opt.NoOpt, err, tc.want)
				}
			}
			if _, err := interpret(tc.src, Config{}); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("interp: err = %v, want %q", err, tc.want)
			}
		})
	}
}

// disassemble renders a compiled function, one instruction a line.
func disassemble(fn *Fn) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (params=%d slots=%d)\n", fn.Name, fn.Params, fn.Slots)
	for i, ins := range fn.Code {
		fmt.Fprintf(&b, "%4d  %s\n", i, ins)
	}
	return b.String()
}

func TestDisassemble(t *testing.T) {
	prog := cc.MustAnalyze(cc.MustParse(`int main() { int x = 1 + 2; return x; }`))
	// NoOpt: this test inspects the compiler's lowering; the peephole
	// pass would fold 1+2 into a single constant.
	p, err := CompileOpts(prog, Options{NoOpt: true})
	if err != nil {
		t.Fatal(err)
	}
	dis := disassemble(p.Fns[p.FuncID["main"]])
	for _, want := range []string{"const", "add", "storel", "loadl", "ret"} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly missing %q:\n%s", want, dis)
		}
	}
	opt, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	if dis := disassemble(opt.Fns[opt.FuncID["main"]]); strings.Contains(dis, "add") {
		t.Errorf("optimized disassembly still has the folded add:\n%s", dis)
	}
}

// sortedLines canonicalizes threaded output for comparison.
func sortedLines(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestCrossEngineDifferential runs the random program corpus, the
// placement-reorganization program and the Car of Fig. 1 on both
// execution engines — the tree-walking interpreter and this VM — in
// plain and amplified form, and requires identical behavior. The
// engines share only the front end and the machine below new/delete,
// so agreement pins evaluation order, scoping and object lifecycle.
func TestCrossEngineDifferential(t *testing.T) {
	corpus := map[string]string{}
	for seed := int64(0); seed < 20; seed++ {
		cfg := mccgen.Config{Seed: seed}
		if seed%4 == 1 {
			cfg.Threads = 2
		}
		corpus[fmt.Sprintf("seed %d", seed)] = mccgen.Generate(cfg)
	}
	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", "programs", "placement.mcc"))
	if err != nil {
		t.Fatal(err)
	}
	corpus["placement"] = string(raw)
	corpus["car"] = cartreeProgram(t)
	for name, src := range corpus {
		amped, _, err := core.Rewrite(src, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for variant, program := range map[string]string{"plain": src, "amplified": amped} {
			name := name + " " + variant
			iRes, err := interpret(program, Config{})
			if err != nil {
				t.Fatalf("%s: interp: %v", name, err)
			}
			vRes, err := execute(program, Options{}, Config{})
			if err != nil {
				t.Fatalf("%s: vm: %v", name, err)
			}
			// The bytecode optimizer must be invisible to the simulation:
			// the unoptimized VM run agrees on every observable, the
			// makespan included.
			nRes, err := execute(program, Options{NoOpt: true}, Config{})
			if err != nil {
				t.Fatalf("%s: vm -no-opt: %v", name, err)
			}
			if !reflect.DeepEqual(vRes, nRes) {
				t.Fatalf("%s: optimizer changed simulated results\n-O:      %+v\n-no-opt: %+v",
					name, vRes, nRes)
			}
			if sortedLines(iRes.Output) != sortedLines(vRes.Output) {
				t.Fatalf("%s: engines disagree\ninterp:\n%s\nvm:\n%s\nprogram:\n%s",
					name, iRes.Output, vRes.Output, program)
			}
			if iRes.ExitCode != vRes.ExitCode {
				t.Fatalf("%s: exit codes %d vs %d", name, iRes.ExitCode, vRes.ExitCode)
			}
			// The engines share the allocator and pool layers, so every
			// heap and pool counter must agree exactly. Peak bytes is not
			// compared: on the plain Car it is 144 on the VM and 192 on
			// the interpreter.
			counters := func(r Result) [6]int64 {
				return [6]int64{r.PlacementFallbacks, r.PoolHits, r.PoolMisses, r.ShadowReuses, r.Alloc.Allocs, r.Alloc.Frees}
			}
			if counters(iRes) != counters(vRes) {
				t.Fatalf("%s: fallbacks, pool hits, misses, shadow reuses, allocs, frees: interp %v, vm %v",
					name, counters(iRes), counters(vRes))
			}
			if name == "placement amplified" && vRes.PlacementFallbacks == 0 {
				t.Errorf("%s: expected placement fallbacks for the loop-built list", name)
			}
		}
	}
}

// cartreeProgram reads the Car program out of examples/cartree's
// source, so the example and this corpus run the same program.
func cartreeProgram(t *testing.T) string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("..", "..", "examples", "cartree", "main.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if obj := f.Scope.Lookup("carProgram"); obj != nil {
		if vs, ok := obj.Decl.(*ast.ValueSpec); ok {
			if src, err := strconv.Unquote(vs.Values[0].(*ast.BasicLit).Value); err == nil {
				return src
			}
		}
	}
	t.Fatal("examples/cartree declares no carProgram string")
	return ""
}

func TestEnginesAgreeOnCostScale(t *testing.T) {
	// Both engines charge about one work unit per evaluation step
	// (instruction vs AST node), so the same program must land in the
	// same virtual-time ballpark — a drifting ratio would silently skew
	// any experiment that mixes engines.
	src := mccgen.Generate(mccgen.Config{Seed: 3, Iterations: 30})
	iRes, err := interpret(src, Config{})
	if err != nil {
		t.Fatal(err)
	}
	vRes, err := execute(src, Options{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(vRes.Makespan) / float64(iRes.Makespan)
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("engine cost ratio = %.2f (vm %d vs interp %d), want within 2x",
			ratio, vRes.Makespan, iRes.Makespan)
	}
}

func TestStringTableDeduplicates(t *testing.T) {
	prog := cc.MustAnalyze(cc.MustParse(`
int main() {
    print("same");
    print("same");
    print("other");
    return 0;
}
`))
	p, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Strs) != 2 {
		t.Fatalf("string table = %v, want 2 entries", p.Strs)
	}
}

// TestValueIsPointerFree pins the VM value at 24 bytes with no Go
// pointer in it. Operand stacks, frames, argument copies and object
// fields are all made of values, so a pointer here would put a write
// barrier on every push and make the GC scan every frame and object.
func TestValueIsPointerFree(t *testing.T) {
	if n := unsafe.Sizeof(value{}); n != 24 {
		t.Errorf("value is %d bytes, want 24", n)
	}
	vt := reflect.TypeOf(value{})
	for i := 0; i < vt.NumField(); i++ {
		switch f := vt.Field(i); f.Type.Kind() {
		case reflect.String, reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.Interface, reflect.Func, reflect.Chan, reflect.Struct, reflect.Array:
			t.Errorf("value.%s is a %s; values must hold only scalars", f.Name, f.Type)
		}
	}
}

// TestStringLiteralsPrint runs string literals through print next to
// ints, null and a live reference, from a function two threads call.
// The literal's text is looked up from the program's string table only
// when it is printed, so the output must be the same at -O and
// -no-opt, traced or not, and equal to the interpreter's. Sema lets a
// literal reach arithmetic, where it reads as 0 in both engines.
func TestStringLiteralsPrint(t *testing.T) {
	const src = `
class Node {
    Node(int v) { val = v; }
    int val;
};
void show(Node* n, int k) {
    print("node", k, "val", n->val, null, n, "node", k == 2);
}
int main() {
    Node* n = new Node(7);
    spawn show(n, 1);
    show(n, 2);
    join;
    print("val" + 1, "node" == "val", -"node", !"val");
    return 0;
}
`
	p, err := Compile(cc.MustAnalyze(cc.MustParse(src)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Strs, []string{"node", "val"}) {
		t.Fatalf("string table = %q, want each literal once", p.Strs)
	}
	want, err := interpret(src, Config{})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(want.Output, "\n")
	if len(lines) != 4 || !strings.HasPrefix(lines[0], "node 2 val 7 null 0x") || !strings.HasSuffix(lines[0], " node 1") ||
		lines[2] != "1 1 0 1" {
		t.Fatalf("interpreter output:\n%s", want.Output)
	}
	for _, noOpt := range []bool{false, true} {
		for _, traced := range []bool{false, true} {
			cfg := Config{}
			if traced {
				cfg.Tracer = dropEvents{}
			}
			got, err := execute(src, Options{NoOpt: noOpt}, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.Output != want.Output {
				t.Errorf("no-opt=%v traced=%v: output\n%s\nwant\n%s", noOpt, traced, got.Output, want.Output)
			}
		}
	}
}

func TestSpawnArgumentOrder(t *testing.T) {
	r := run(t, `
void w(int a, int b, int c) {
    print(a, b, c);
}

int main() {
    spawn w(1, 2, 3);
    join;
    return 0;
}
`, Config{})
	if r.Output != "1 2 3\n" {
		t.Fatalf("spawn argument order broken: %q", r.Output)
	}
}

func TestShortCircuitEvaluation(t *testing.T) {
	// && / || short-circuit and normalize to 0/1; side effects in the
	// skipped operand must not run.
	r := run(t, `
class Probe {
public:
    Probe() {
        hits = 0;
    }
    ~Probe() {
    }
    int bump() {
        hits = hits + 1;
        return 1;
    }
    int count() {
        return hits;
    }
private:
    int hits;
};

int main() {
    Probe* p = new Probe();
    int a = 0 && p->bump();
    int b = 1 || p->bump();
    int c = 1 && p->bump();
    print(a, b, c, p->count());
    delete p;
    return 0;
}
`, Config{})
	if r.Output != "0 1 1 1\n" {
		t.Fatalf("short-circuit output = %q, want \"0 1 1 1\"", r.Output)
	}
}

func TestConstantPoolDeduplicates(t *testing.T) {
	prog := cc.MustAnalyze(cc.MustParse(`int main() { return 7 + 7 + 7; }`))
	p, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, v := range p.Consts {
		if v == 7 {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("constant 7 appears %d times in the pool", count)
	}
}

// threadedCarSource is the Car of Fig. 1 built by two factory threads.
// The Engine's name array changes length from car to car, so the
// amplified program reallocates shadowed arrays while the other thread
// allocates from the same heap.
const threadedCarSource = `
class Engine {
public:
    Engine(int p, int len) {
        power = p;
        nameLen = len;
        name = new char[len];
        for (int i = 0; i < len; i = i + 1) {
            name[i] = p + i;
        }
    }
    ~Engine() {
        delete[] name;
    }
    int rate() {
        int s = power;
        for (int i = 0; i < nameLen; i = i + 1) {
            s = s + name[i];
        }
        return s;
    }
private:
    int power;
    int nameLen;
    char* name;
};

class Wheel {
public:
    Wheel(int s, int remaining) {
        size = s;
        if (remaining > 0) {
            next = new Wheel(s, remaining - 1);
        } else {
            next = null;
        }
    }
    ~Wheel() {
        delete next;
    }
    int count() {
        if (next) {
            return 1 + next->count();
        }
        return 1;
    }
private:
    int size;
    Wheel* next;
};

class Car {
public:
    Car(int power, int wheels, int len) {
        engine = new Engine(power, len);
        first = new Wheel(16, wheels - 1);
    }
    ~Car() {
        delete engine;
        delete first;
    }
    int score() {
        return engine->rate() + first->count();
    }
private:
    Engine* engine;
    Wheel* first;
};

void factory(int id, int cars) {
    int total = 0;
    for (int i = 0; i < cars; i = i + 1) {
        Car* c = new Car(120 + i % 10, 4 + i % 3, 8 + (i * 7) % 13);
        total = total + c->score();
        delete c;
    }
    print("factory", id, "total", total);
}

int main() {
    spawn factory(0, 100);
    spawn factory(1, 100);
    join;
    return 0;
}
`

// TestThreadedShadowRealloc runs amplified multithreaded programs whose
// shadowed arrays are reallocated while another thread allocates: a
// realloc that frees its shadow block and then waits for the allocator
// must not mark a buffer that another thread was handed meanwhile as
// freed. The VM must match the AST interpreter.
func TestThreadedShadowRealloc(t *testing.T) {
	for name, src := range map[string]string{
		"mccgen seed 26": mccgen.Generate(mccgen.Config{Seed: 26, Threads: 2}),
		"car":            threadedCarSource,
	} {
		amped, _, err := core.Rewrite(src, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := interpret(amped, Config{})
		if err != nil {
			t.Fatalf("%s: interp: %v", name, err)
		}
		got, err := execute(amped, Options{}, Config{})
		if err != nil {
			t.Fatalf("%s: vm: %v", name, err)
		}
		if sortedLines(got.Output) != sortedLines(want.Output) {
			t.Errorf("%s: vm output\n%s\nwant (interp)\n%s", name, got.Output, want.Output)
		}
	}
}
