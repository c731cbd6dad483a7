package bench

import (
	"fmt"
	"runtime"
	"time"

	"amplify/internal/alloctrace"
	"amplify/internal/cc"
	"amplify/internal/core"
	"amplify/internal/heapobsv"
	"amplify/internal/mccgen"
	"amplify/internal/obsv"
	"amplify/internal/sim"
	"amplify/internal/vet"
	"amplify/internal/vm"
	"amplify/internal/workload"
)

// Host benchmarks: wall-clock measurements of the simulator itself,
// as opposed to the simulated makespans everything else in this
// package reports. These back the BENCH_host.json trajectory file: a
// committed snapshot of how fast the host-side machinery (VM,
// scheduler, observation) runs, so host regressions show up in review
// even though they can never change simulated results.
//
// Methodology: every row keeps the minimum of repeated runs after a
// warm-up. On a noisy host the minimum is the most stable available
// estimator — means drift with background load.

// HostBenchSchema identifies the BENCH_host.json layout.
const HostBenchSchema = "amplify-hostbench/1"

// HostBenchmark is one measurement: the best observed wall time of a
// named workload on the VM or a named subsystem.
type HostBenchmark struct {
	Name string `json:"name"`
	// NsPerOp is the minimum observed nanoseconds per operation.
	NsPerOp int64 `json:"ns_per_op"`
	// AllocsPerOp is the mean heap allocations per operation, measured
	// separately from the timing loop (ReadMemStats is not free).
	AllocsPerOp int64 `json:"allocs_per_op"`
}

// HostReport is the machine-readable host-benchmark snapshot.
type HostReport struct {
	Schema     string          `json:"schema"`
	GoVersion  string          `json:"go_version"`
	HostCPUs   int             `json:"host_cpus"`
	Benchmarks []HostBenchmark `json:"benchmarks"`
}

// vmHostSources are the MiniCC programs the VM rows time. treeChurn is
// allocator/cache bound (the paper's test case 2 shape); arithLoop is
// dispatch bound, isolating the bytecode loop from the simulation
// models; methodCalls stresses the call machinery and inline caches.
var vmHostSources = []struct {
	name string
	src  string
}{
	{"exec_tree_build", `
class Node {
public:
    Node(int depth, int seed) {
        d1 = seed; d2 = seed * 2; d3 = seed + 7;
        if (depth > 0) {
            left = new Node(depth - 1, seed + 1);
            right = new Node(depth - 1, seed + 2);
        }
    }
    ~Node() { delete left; delete right; }
    int sum() {
        int s = d1 + d2 + d3;
        if (left) { s = s + left->sum(); }
        if (right) { s = s + right->sum(); }
        return s;
    }
private:
    Node* left; Node* right; int d1; int d2; int d3;
};
int main() {
    int total = 0;
    for (int t = 0; t < 40; t = t + 1) {
        Node* root = new Node(4, t);
        total = total + root->sum();
        delete root;
    }
    return total % 256;
}`},
	{"arith_loop", `
int spin(int n) {
    int acc = 0;
    for (int i = 0; i < n; i = i + 1) {
        acc = acc + i * 3 - (acc % 7);
        if (acc > 100000) { acc = acc - 100000; }
    }
    return acc;
}
int main() { return spin(60000) % 256; }`},
	{"method_calls", `
class Counter {
public:
    Counter() { n = 0; }
    int bump(int k) { n = n + k; return n; }
    int n;
};
int main() {
    Counter* c = new Counter();
    int s = 0;
    for (int i = 0; i < 30000; i = i + 1) { s = s + c->bump(1) % 9; }
    delete c;
    return s % 256;
}`},
}

// minOf warms fn up once, then runs it rounds times and returns the
// minimum duration.
func minOf(rounds int, fn func() error) (time.Duration, error) {
	if err := fn(); err != nil {
		return 0, err
	}
	best := time.Duration(1 << 62)
	for i := 0; i < rounds; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best, nil
}

// allocsPerOp measures the mean heap allocations of fn over k runs.
func allocsPerOp(k int, fn func() error) (int64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < k; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return int64(after.Mallocs-before.Mallocs) / int64(k), nil
}

// HostBench runs the host-side benchmark suite and assembles the
// report. It takes tens of seconds; nothing here touches the memo or
// the simulated-result trajectory.
func HostBench() (*HostReport, error) {
	rep := &HostReport{
		Schema:    HostBenchSchema,
		GoVersion: runtime.Version(),
		HostCPUs:  runtime.NumCPU(),
	}

	// vmRow times one compiled program with a fresh tracer per run
	// (newTracer returns nil for a detached run).
	vmRow := func(name string, p *vm.Program, newTracer func() sim.Tracer) error {
		run := func() error {
			_, err := vm.Run(p, vm.Config{Tracer: newTracer()})
			return err
		}
		best, err := minOf(40, run)
		if err != nil {
			return fmt.Errorf("hostbench %s: %w", name, err)
		}
		allocs, err := allocsPerOp(10, run)
		if err != nil {
			return err
		}
		rep.Benchmarks = append(rep.Benchmarks, HostBenchmark{Name: name, NsPerOp: best.Nanoseconds(), AllocsPerOp: allocs})
		return nil
	}
	detached := func() sim.Tracer { return nil }
	var treeBuild *vm.Program
	for _, s := range vmHostSources {
		prog, err := cc.Parse(s.src)
		if err != nil {
			return nil, fmt.Errorf("hostbench %s: %w", s.name, err)
		}
		p, err := vm.Compile(prog)
		if err != nil {
			return nil, fmt.Errorf("hostbench %s: %w", s.name, err)
		}
		if s.name == "exec_tree_build" {
			treeBuild = p
		}
		if err := vmRow("vm/"+s.name, p, detached); err != nil {
			return nil, err
		}
	}

	// Observation overhead on the tree program: no tracer, then every
	// event-stream consumer attached through one fan-out (as mccrun
	// attaches them when every observer flag is given).
	if err := vmRow("observe/detached", treeBuild, detached); err != nil {
		return nil, err
	}
	all := func() sim.Tracer {
		return sim.NewTee(&sim.Recorder{Max: 4_000_000}, obsv.NewProfiler(), &heapobsv.Timeline{},
			heapobsv.NewSiteProfile(), alloctrace.NewRecorder("observe"))
	}
	if err := vmRow("observe/all", treeBuild, all); err != nil {
		return nil, err
	}

	// Scheduler benchmarks: spawn churn (thread creation/retirement
	// through the pooled workers) and an oversubscribed run (preemption
	// handoff and migration under a long ready queue).
	schedBenches := []struct {
		name string
		run  func() error
	}{
		{"sched/spawn_churn_50k", func() error {
			e := sim.New(sim.Config{Processors: 8})
			e.Go("root", func(c *sim.Ctx) {
				for i := 0; i < 50_000; i++ {
					c.Go("w", func(c *sim.Ctx) { c.Work(20) })
				}
			})
			e.Run()
			return nil
		}},
		{"sched/oversubscribed_1k_threads", func() error {
			e := sim.New(sim.Config{Processors: 8})
			for i := 0; i < 1000; i++ {
				e.Go("w", func(c *sim.Ctx) {
					for j := 0; j < 50; j++ {
						c.Work(200)
					}
				})
			}
			e.Run()
			return nil
		}},
		{"sched/tree_churn_p64", func() error {
			_, err := workload.RunTree("amplify", workload.TreeConfig{
				Depth: 1, Trees: 20_000, Threads: 20_000,
				Processors: 64, InitWork: InitWork, UseWork: UseWork,
			})
			return err
		}},
	}
	for _, sb := range schedBenches {
		best, err := minOf(5, sb.run)
		if err != nil {
			return nil, fmt.Errorf("hostbench %s: %w", sb.name, err)
		}
		allocs, err := allocsPerOp(3, sb.run)
		if err != nil {
			return nil, err
		}
		rep.Benchmarks = append(rep.Benchmarks, HostBenchmark{Name: sb.name, NsPerOp: best.Nanoseconds(), AllocsPerOp: allocs})
	}

	toolRows, err := toolPathHostBench()
	if err != nil {
		return nil, err
	}
	rep.Benchmarks = append(rep.Benchmarks, toolRows...)
	return rep, nil
}

// toolPathHostBench times the tool-path layers one by one on one large
// generated program (41 KB of source): the front end, vet with escape
// analysis, the analysis-driven rewrite, and -O compilation.
func toolPathHostBench() ([]HostBenchmark, error) {
	const rounds, allocRuns = 10, 3
	src := mccgen.Generate(mccgen.Config{Seed: 5, MaxClasses: 64, MaxFields: 12, Iterations: 2})
	parse := func() (*cc.Program, error) {
		prog, err := cc.Parse(src)
		if err != nil {
			return nil, err
		}
		return prog, cc.Analyze(prog)
	}
	prog, err := parse()
	if err != nil {
		return nil, fmt.Errorf("hostbench tool path: %w", err)
	}
	auto := map[string]string{}
	for _, e := range vet.Check(prog).Ineligible() {
		auto[e.Class] = e.Reason
	}
	// A tree serves one vet run: the escape analysis is memoized on it.
	// Every run of that row takes a tree parsed beforehand.
	trees := make([]*cc.Program, 1+rounds+allocRuns)
	for i := range trees {
		if trees[i], err = parse(); err != nil {
			return nil, err
		}
	}
	rows := []struct {
		name string
		run  func() error
	}{
		{"front/parse_analyze", func() error {
			_, err := parse()
			return err
		}},
		{"vet/check_escape", func() error {
			t := trees[0]
			trees = trees[1:]
			vet.Check(t)
			vet.Escape(t)
			return nil
		}},
		{"core/rewrite", func() error {
			_, _, err := core.Rewrite(src, core.Options{AutoExclude: auto, Escape: true})
			return err
		}},
		{"vm/compile", func() error {
			_, err := vm.CompileOpts(prog, vm.Options{})
			return err
		}},
	}
	var out []HostBenchmark
	for _, r := range rows {
		best, err := minOf(rounds, r.run)
		if err != nil {
			return nil, fmt.Errorf("hostbench %s: %w", r.name, err)
		}
		allocs, err := allocsPerOp(allocRuns, r.run)
		if err != nil {
			return nil, err
		}
		out = append(out, HostBenchmark{Name: r.name, NsPerOp: best.Nanoseconds(), AllocsPerOp: allocs})
	}
	return out, nil
}
