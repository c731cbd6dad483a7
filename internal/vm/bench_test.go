package vm

import (
	"testing"

	"amplify/internal/cc"
	"amplify/internal/core"
	"amplify/internal/mccgen"
	"amplify/internal/vet"
)

// benchProgram parses, analyzes and compiles a source once; benchmarks
// then re-run the compiled program so they measure execution, not the
// front end.
func benchProgram(b *testing.B, src string) *Program {
	b.Helper()
	prog, err := cc.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	if err := cc.Analyze(prog); err != nil {
		b.Fatal(err)
	}
	p, err := Compile(prog)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// treeBenchSrc is the paper's tree-churn shape (test case 2): recursive
// constructors and destructors, field loads on every node, a method
// call per node. It concentrates OpNew/OpDelete/OpLoadField/OpMethod —
// the opcodes the fast-path engine targets.
const treeBenchSrc = `
class Node {
public:
    Node(int depth, int seed) {
        d1 = seed;
        d2 = seed * 2;
        d3 = seed + 7;
        if (depth > 0) {
            left = new Node(depth - 1, seed + 1);
            right = new Node(depth - 1, seed + 2);
        }
    }
    ~Node() {
        delete left;
        delete right;
    }
    int sum() {
        int s = d1 + d2 + d3;
        if (left) {
            s = s + left->sum();
        }
        if (right) {
            s = s + right->sum();
        }
        return s;
    }
private:
    Node* left;
    Node* right;
    int d1;
    int d2;
    int d3;
};

int main() {
    int total = 0;
    for (int t = 0; t < 40; t = t + 1) {
        Node* root = new Node(4, t);
        total = total + root->sum();
        delete root;
    }
    return total % 256;
}
`

// BenchmarkExecTreeBuild measures whole-program execution of the tree
// churn: each iteration runs the compiled program on a fresh simulated
// machine (the compile is amortized outside the loop).
func BenchmarkExecTreeBuild(b *testing.B) {
	p := benchProgram(b, treeBenchSrc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(p, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

const monoDispatchSrc = `
class Counter {
public:
    Counter() {
        n = 0;
    }
    ~Counter() {
    }
    int bump() {
        n = n + 1;
        return n;
    }
private:
    int n;
};

int main() {
    Counter* c = new Counter();
    int s = 0;
    for (int i = 0; i < 20000; i = i + 1) {
        s = s + c->bump();
    }
    delete c;
    return s % 256;
}
`

// polyDispatchSrc funnels two receiver classes through one call site
// (the void* conversion defeats any static receiver typing), so the
// site's class alternates every iteration — the worst case for a
// monomorphic inline cache, exercising the vtable fallback.
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

// arithLoopSrc is a dispatch-bound workload: a tight loop over local
// arithmetic with no heap traffic, so nearly all host time is spent in
// instruction dispatch rather than in the shared simulation models.
const arithLoopSrc = `
int spin(int n) {
    int acc = 0;
    for (int i = 0; i < n; i = i + 1) {
        acc = acc + i * 3 - (acc % 7);
        if (acc > 100000) { acc = acc - 100000; }
    }
    return acc;
}
int main() { return spin(60000) % 256; }
`

// BenchmarkExecArithLoop measures the dispatch-bound arithmetic loop.
func BenchmarkExecArithLoop(b *testing.B) {
	p := benchProgram(b, arithLoopSrc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(p, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMethodDispatchMono measures a monomorphic call site: the
// inline cache should hit on every iteration after the first.
func BenchmarkMethodDispatchMono(b *testing.B) {
	p := benchProgram(b, monoDispatchSrc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(p, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMethodDispatchPoly measures a strictly-alternating
// polymorphic call site: the inline cache misses every time and
// dispatch falls back to the per-class vtable.
func BenchmarkMethodDispatchPoly(b *testing.B) {
	p := benchProgram(b, polyDispatchSrc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(p, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPeepholeCompile measures the full bytecode pipeline —
// lowering plus (when enabled) the peephole/superinstruction pass —
// over the tree program.
func BenchmarkPeepholeCompile(b *testing.B) {
	prog, err := cc.Parse(treeBenchSrc)
	if err != nil {
		b.Fatal(err)
	}
	if err := cc.Analyze(prog); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSrc is the front end's benchmark program (internal/cc): 49 KB of
// generated source, up to 64 classes of up to 12 fields.
var benchSrc = mccgen.Generate(mccgen.Config{Seed: 28, MaxClasses: 64, MaxFields: 12, Iterations: 2})

// ledgerSrc is the program of the tool-path rows of BENCH_host.json.
var ledgerSrc = mccgen.Generate(mccgen.Config{Seed: 5, MaxClasses: 64, MaxFields: 12, Iterations: 2})

// BenchmarkCompile measures -O compilation of the analyzed benchSrc.
func BenchmarkCompile(b *testing.B) {
	prog, err := analyze(benchSrc)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := CompileOpts(prog, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCompileAllocBudget bounds -O compilation's allocations on the
// ledger program: one scope stack per compile, not a map per block.
// The ceiling is the measured count plus 10%.
func TestCompileAllocBudget(t *testing.T) {
	const budget = 1740
	prog, err := analyze(ledgerSrc)
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(3, func() {
		if _, err := CompileOpts(prog, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if got > budget {
		t.Errorf("vm.CompileOpts: %.0f allocs per run, budget %d", got, budget)
	}
}

// TestToolPathAllocBudget bounds the allocations of the tool path on
// the ledger program: analyze, vet.Check, the rewrite with the vetted
// classes auto-excluded and the escape-driven rewrites on, then -O
// compilation of the tree the rewrite returns. The rewrite's one
// verification parse is the only parse of its output. The ceiling is
// the measured count plus 10%.
func TestToolPathAllocBudget(t *testing.T) {
	const budget = 10560
	got := testing.AllocsPerRun(3, func() {
		prog, err := analyze(ledgerSrc)
		if err != nil {
			t.Fatal(err)
		}
		auto := map[string]string{}
		for _, e := range vet.Check(prog).Ineligible() {
			auto[e.Class] = e.Reason
		}
		_, tree, _, err := core.RewriteProgram(prog, core.Options{AutoExclude: auto, Escape: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := CompileOpts(tree, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if got > budget {
		t.Errorf("tool path: %.0f allocs per program, budget %d", got, budget)
	}
}
