package vm

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"amplify/internal/cc"
	"amplify/internal/core"
	"amplify/internal/interp"
	"amplify/internal/mccgen"
)

func run(t *testing.T, src string, cfg Config) Result {
	t.Helper()
	r, err := RunSource(src, cfg)
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
			_, err := RunSource(tc.src, Config{})
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
	for _, cfg := range []Config{{}, {NoOpt: true}} {
		// Both engines must report the same fault with the same
		// fn@pc:op context; pin them against each other exactly.
		swErr, cErr := func() (error, error) {
			_, e1 := RunSource(src, cfg)
			ccfg := cfg
			ccfg.Engine = "closure"
			_, e2 := RunSource(src, ccfg)
			return e1, e2
		}()
		if swErr == nil || cErr == nil {
			t.Fatalf("expected faults from both engines, got switch=%v closure=%v", swErr, cErr)
		}
		if swErr.Error() != cErr.Error() {
			t.Fatalf("fault context differs across engines:\nswitch:  %q\nclosure: %q", swErr, cErr)
		}
	}
	for _, cfg := range []Config{{}, {NoOpt: true}} {
		_, err := RunSource(src, cfg)
		if err == nil {
			t.Fatal("expected a null-dereference fault")
		}
		msg := err.Error()
		if !strings.Contains(msg, "null pointer dereference") ||
			!strings.Contains(msg, "at helper@") {
			t.Fatalf("fault lacks context: %q", msg)
		}
		// The faulting op differs by optimization level (the peephole
		// fuses loadl+loadf into loadlf), but one of them must appear.
		if !strings.Contains(msg, "loadf") && !strings.Contains(msg, "loadlf") {
			t.Fatalf("fault lacks opcode: %q", msg)
		}
	}
}

func TestDisassemble(t *testing.T) {
	prog := cc.MustAnalyze(cc.MustParse(`int main() { int x = 1 + 2; return x; }`))
	// NoOpt: this test inspects the compiler's lowering; the peephole
	// pass would fold 1+2 into a single constant.
	p, err := CompileOpts(prog, Options{NoOpt: true})
	if err != nil {
		t.Fatal(err)
	}
	dis := p.Disassemble(p.Fns[p.FuncID["main"]])
	for _, want := range []string{"const", "add", "storel", "loadl", "ret"} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly missing %q:\n%s", want, dis)
		}
	}
	opt, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	if dis := opt.Disassemble(opt.Fns[opt.FuncID["main"]]); strings.Contains(dis, "add") {
		t.Errorf("optimized disassembly still has the folded add:\n%s", dis)
	}
}

// sortedLines canonicalizes threaded output for comparison.
func sortedLines(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestCrossEngineDifferential runs the random program corpus on both
// execution engines — the tree-walking interpreter and this VM — in
// plain and amplified form, and requires identical behavior. The
// engines share only the front end and the runtime below new/delete,
// so agreement pins evaluation order, scoping and object lifecycle.
func TestCrossEngineDifferential(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		cfg := mccgen.Config{Seed: seed}
		if seed%4 == 1 {
			cfg.Threads = 2
		}
		src := mccgen.Generate(cfg)
		variants := map[string]string{"plain": src}
		amped, _, err := core.Rewrite(src, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		variants["amplified"] = amped

		for name, program := range variants {
			iRes, err := interp.RunSource(program, interp.Config{})
			if err != nil {
				t.Fatalf("seed %d %s: interp: %v", seed, name, err)
			}
			vRes, err := RunSource(program, Config{})
			if err != nil {
				t.Fatalf("seed %d %s: vm: %v", seed, name, err)
			}
			// The bytecode optimizer must be invisible to the simulation:
			// the unoptimized VM run agrees on every observable, the
			// makespan included.
			nRes, err := RunSource(program, Config{NoOpt: true})
			if err != nil {
				t.Fatalf("seed %d %s: vm -no-opt: %v", seed, name, err)
			}
			if !reflect.DeepEqual(vRes, nRes) {
				t.Fatalf("seed %d %s: optimizer changed simulated results\n-O:      %+v\n-no-opt: %+v",
					seed, name, vRes, nRes)
			}
			// The closure-compiled engine executes the same bytecode with
			// a different dispatch mechanism; every observable — the
			// makespan included — must be byte-identical to the switch
			// engine, at both optimization levels.
			for variant, ccfg := range map[string]Config{
				"closure":         {Engine: "closure"},
				"closure -no-opt": {Engine: "closure", NoOpt: true},
			} {
				cRes, err := RunSource(program, ccfg)
				if err != nil {
					t.Fatalf("seed %d %s: vm %s: %v", seed, name, variant, err)
				}
				if !reflect.DeepEqual(vRes, cRes) {
					t.Fatalf("seed %d %s: %s engine diverged from switch\nswitch:  %+v\n%s: %+v",
						seed, name, variant, vRes, variant, cRes)
				}
			}
			if sortedLines(iRes.Output) != sortedLines(vRes.Output) {
				t.Fatalf("seed %d %s: engines disagree\ninterp:\n%s\nvm:\n%s\nprogram:\n%s",
					seed, name, iRes.Output, vRes.Output, program)
			}
			if iRes.ExitCode != vRes.ExitCode {
				t.Fatalf("seed %d %s: exit codes %d vs %d", seed, name, iRes.ExitCode, vRes.ExitCode)
			}
			// The engines share the allocator/pool layer, so heap
			// behavior must agree exactly.
			if iRes.Alloc.Allocs != vRes.Alloc.Allocs {
				t.Fatalf("seed %d %s: allocs %d vs %d", seed, name, iRes.Alloc.Allocs, vRes.Alloc.Allocs)
			}
		}
	}
}

func TestEnginesAgreeOnCostScale(t *testing.T) {
	// Both engines charge about one work unit per evaluation step
	// (instruction vs AST node), so the same program must land in the
	// same virtual-time ballpark — a drifting ratio would silently skew
	// any experiment that mixes engines.
	src := mccgen.Generate(mccgen.Config{Seed: 3, Iterations: 30})
	iRes, err := interp.RunSource(src, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	vRes, err := RunSource(src, Config{})
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
// freed. Both engines must match the AST interpreter.
func TestThreadedShadowRealloc(t *testing.T) {
	for name, src := range map[string]string{
		"mccgen seed 26": mccgen.Generate(mccgen.Config{Seed: 26, Threads: 2}),
		"car":            threadedCarSource,
	} {
		amped, _, err := core.Rewrite(src, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := interp.RunSource(amped, interp.Config{})
		if err != nil {
			t.Fatalf("%s: interp: %v", name, err)
		}
		for _, engine := range []string{"switch", "closure"} {
			got, err := RunSource(amped, Config{Engine: engine})
			if err != nil {
				t.Fatalf("%s: %s engine: %v", name, engine, err)
			}
			if sortedLines(got.Output) != sortedLines(want.Output) {
				t.Errorf("%s: %s engine output\n%s\nwant (interp)\n%s", name, engine, got.Output, want.Output)
			}
		}
	}
}
