package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"amplify/internal/alloctrace"
	"amplify/internal/bgw"
	"amplify/internal/mccgen"
	"amplify/internal/vm"
	"amplify/internal/workload"
)

// An op is one closed-loop operation: a call chain into the public API
// of one or more layers. Its inputs are generated during set-up and
// captured by run, so the code under test only ever receives them.
type op struct {
	name string
	// kind groups ops that take the same code path; set-up warms up the
	// first op of each kind.
	kind string
	// twin is the index of the plain op whose program output this
	// (amplified) op must reproduce, or -1.
	twin int
	run  func(x exec) (outcome, error)
}

// setupFunc generates a workload's inputs and returns its op list. The
// op list is the same on every call: the run seed only orders it. small
// selects the tiny inputs the package test runs.
type setupFunc func(x exec, small bool) ([]op, error)

// workloads are listed in the order BENCHMARK.json declares them.
var workloads = []struct {
	name  string
	setup setupFunc
}{
	{"paper-eval", setupPaperEval},
	{"big-source", setupBigSource},
	{"trace-replay", setupTraceReplay},
	{"thread-storm", setupThreadStorm},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// setupPaperEval is the paper's evaluation in miniature: the synthetic
// tree programs of test cases 1/2/3 (§4) over three C-library
// allocators and after the Amplify rewrite, the Car program of Fig. 1,
// and BGw (§5.2) plain and amplified.
func setupPaperEval(x exec, small bool) ([]op, error) {
	nodes, cars, cdrs := 3600, 300, 1000
	if small {
		nodes, cars, cdrs = 60, 4, 20
	}
	var ops []op
	program := func(name, kind, src string, amplify bool, alloc string, twin int) {
		ops = append(ops, op{name: name, kind: kind, twin: twin, run: func(x exec) (outcome, error) {
			return x.program(src, amplify, vm.Config{Strategy: alloc})
		}})
	}
	for _, depth := range []int{1, 3, 5} {
		// Every program builds about the same number of nodes, so the
		// three test cases weigh alike.
		trees := nodes / workload.Nodes(depth)
		for _, threads := range []int{1, 2, 4, 8} {
			src := treeSource(threads, max(trees/threads, 1), depth)
			base := fmt.Sprintf("tree/d%d/t%d", depth, threads)
			plain := len(ops)
			for _, alloc := range []string{"serial", "ptmalloc", "hoard"} {
				program(base+"/"+alloc, "tree", src, false, alloc, -1)
			}
			program(base+"/amplify", "tree-amplified", src, true, "serial", plain)
		}
	}
	car := carSource(cars)
	program("car/serial", "car", car, false, "serial", -1)
	program("car/amplify", "car-amplified", car, true, "serial", len(ops)-1)
	for _, alloc := range []string{"smartheap", "ptmalloc", "serial"} {
		for _, threads := range []int{1, 8} {
			name := fmt.Sprintf("bgw/%s/t%d", alloc, threads)
			plain := len(ops)
			for _, amplify := range []bool{false, true} {
				cfg := bgw.Config{CDRs: cdrs, Threads: threads, Strategy: alloc, Amplify: amplify}
				o := op{name: name, kind: "bgw", twin: -1, run: func(x exec) (outcome, error) { return x.bgw(cfg) }}
				if amplify {
					o.name, o.kind, o.twin = name+"/amplify", "bgw-amplified", plain
				}
				ops = append(ops, o)
			}
		}
	}
	return ops, nil
}

// setupBigSource draws the compiler-tool workload: generated programs
// from about 4 to 36 KB of source, each checked, escape-analyzed,
// rewritten, compiled in both forms and run briefly. The draw uses a
// fixed catalog seed, so every run seed measures the same programs.
func setupBigSource(x exec, small bool) ([]op, error) {
	n, maxClasses := 120, 64
	if small {
		n, maxClasses = 4, 8
	}
	rng := rand.New(rand.NewSource(20010901))
	ops := make([]op, 0, n)
	for i := 0; i < n; i++ {
		cfg := mccgen.Config{
			Seed:       rng.Int63(),
			MaxClasses: 8 + rng.Intn(maxClasses-7),
			MaxFields:  4 + rng.Intn(9),
			Iterations: 1 + rng.Intn(2),
		}
		src := mccgen.Generate(cfg)
		ops = append(ops, op{
			name: fmt.Sprintf("mccgen/%d/%dB", i, len(src)),
			kind: "mccgen",
			twin: -1,
			run:  func(x exec) (outcome, error) { return x.toolchain(src) },
		})
	}
	return ops, nil
}

// tracesDir holds the committed allocation-trace corpora, relative to
// the repository root the benchmark runs from.
const tracesDir = "testdata/traces"

// setupTraceReplay decodes the four committed corpora, after checking
// them against their pinned SHA-256 sums, and replays each through each
// allocator on eight simulated processors.
func setupTraceReplay(x exec, small bool) ([]op, error) {
	sums, err := readSums(filepath.Join(tracesDir, "SHA256SUMS"))
	if err != nil {
		return nil, err
	}
	allocs := workload.ReplayStrategies()
	if small {
		allocs = []string{"smartheap", "lfalloc"}
	}
	var ops []op
	for _, name := range alloctrace.CorpusNames() {
		file := name + ".trace"
		data, err := os.ReadFile(filepath.Join(tracesDir, file))
		if err != nil {
			return nil, err
		}
		if got := sha256.Sum256(data); hex.EncodeToString(got[:]) != sums[file] {
			return nil, fmt.Errorf("%s does not match its pinned SHA-256 sum", file)
		}
		tr, err := x.decode(data)
		if err != nil {
			return nil, fmt.Errorf("decoding %s: %w", file, err)
		}
		want := tr.Stats()
		for _, alloc := range allocs {
			ops = append(ops, op{name: "replay/" + name + "/" + alloc, kind: "replay", twin: -1,
				run: func(x exec) (outcome, error) { return x.replay(alloc, tr, want) }})
		}
	}
	return ops, nil
}

// readSums parses a sha256sum listing into file -> hex digest.
func readSums(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sums := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 2 {
			sums[f[1]] = f[0]
		}
	}
	return sums, sc.Err()
}

// setupThreadStorm is the scheduler workload: one depth-1 tree per
// simulated thread under the Amplify runtime, from thousands of threads
// on 8 processors to tens of thousands on 1024. Op times grow steeply
// with the thread count; an odd number of ops puts the median inside
// one op's samples rather than in the gap between two.
func setupThreadStorm(x exec, small bool) ([]op, error) {
	threads := []int{2500, 5000, 10000, 20000, 40000}
	procs := []int{8, 64, 1024}
	if small {
		threads, procs = []int{50, 100}, []int{8, 64}
	}
	var ops []op
	for _, th := range threads {
		for _, p := range procs {
			cfg := workload.TreeConfig{Depth: 1, Trees: th, Threads: th, Processors: p}
			ops = append(ops, op{name: fmt.Sprintf("storm/t%d/p%d", th, p), kind: "storm", twin: -1,
				run: func(x exec) (outcome, error) { return x.tree("amplify", cfg) }})
		}
	}
	return ops, nil
}

// treeSource is the paper's synthetic program (§4) in MiniCC: each
// thread repeatedly builds, sums and deletes a complete binary tree of
// 20-byte nodes (28 bytes once amplified). Every constructor path
// initializes both child pointers, so the program is vet-clean and the
// rewrite pools Node.
func treeSource(threads, treesPerThread, depth int) string {
	var b strings.Builder
	b.WriteString(`class Node {
public:
    Node(int depth, int seed) {
        d1 = seed;
        d2 = seed * 2;
        d3 = seed + 7;
        if (depth > 0) {
            left = new Node(depth - 1, seed + 1);
            right = new Node(depth - 1, seed + 2);
        } else {
            left = null;
            right = null;
        }
    }
    ~Node() {
        delete left;
        delete right;
    }
    int sum() {
        int s = d1 + d2 + d3;
        __work(8);
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

void churn(int id, int trees, int depth) {
    int total = 0;
    for (int t = 0; t < trees; t = t + 1) {
        Node* root = new Node(depth, id + t);
        total = total + root->sum();
        delete root;
    }
    print("worker", id, "total", total);
}

int main() {
`)
	for i := 0; i < threads; i++ {
		fmt.Fprintf(&b, "    spawn churn(%d, %d, %d);\n", i, treesPerThread, depth)
	}
	b.WriteString("    join;\n    return 0;\n}\n")
	return b.String()
}

// carSource is the Car of Fig. 1: an Engine with a name array whose
// length changes from car to car (so the amplified build goes through
// shadowed realloc), a Chassis and a chain of Wheels, built and
// destroyed in a loop. It is single-threaded: with two factory threads
// the amplified program traps in the VM (see README, known limits).
func carSource(cars int) string {
	return fmt.Sprintf(`class Engine {
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

class Chassis {
public:
    Chassis(int w) {
        weight = w;
    }
    ~Chassis() {
    }
    int mass() {
        return weight;
    }
private:
    int weight;
};

class Car {
public:
    Car(int power, int wheels, int len) {
        engine = new Engine(power, len);
        chassis = new Chassis(900 + wheels);
        first = new Wheel(16, wheels - 1);
    }
    ~Car() {
        delete engine;
        delete chassis;
        delete first;
    }
    int score() {
        return engine->rate() + chassis->mass() + first->count();
    }
private:
    Engine* engine;
    Chassis* chassis;
    Wheel* first;
};

void factory(int id, int cars) {
    int total = 0;
    for (int i = 0; i < cars; i = i + 1) {
        Car* c = new Car(120 + i %% 10, 4 + i %% 3, 8 + (i * 7) %% 13);
        total = total + c->score();
        delete c;
    }
    print("factory", id, "total", total);
}

int main() {
    factory(0, %d);
    return 0;
}
`, cars)
}
