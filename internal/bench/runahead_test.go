package bench

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"amplify/internal/core"
	"amplify/internal/mccgen"
	"amplify/internal/sim"
	"amplify/internal/vm"
)

// dropEvents is a tracer that discards every event. Attaching it turns
// the simulator's run-ahead off (sim.Ctx.Compute) without observing
// anything, so a run with it is the per-unit reference for the same
// run without it.
type dropEvents struct{}

func (dropEvents) Event(sim.Event) {}

// TestRunAheadMatchesPerUnit runs threaded MiniCC programs twice, once
// untraced (threads run ahead through private VM work) and once with a
// tracer that drops every event (every unit charged as Work(1)), on 2
// and 8 processors, and requires identical counters, output and exit
// code. The programs are the end-to-end tree program at 2, 4 and 8
// threads (plain, and amplified over ptmalloc), the escape corpus's
// threaded programs with and without the analysis-driven rewrites,
// examples/cartree's Car program, a racy shared counter, and mccgen
// seeds 0-19 with 1-8 threads. The racy counter's output is pinned: it
// follows from the rule that a field access takes effect at its start.
func TestRunAheadMatchesPerUnit(t *testing.T) {
	type program struct {
		name, src string
		rewrite   *core.Options
		strategy  string
	}
	// pinned holds printed outputs by program and processor count.
	pinned := map[string]map[int]string{"racy_counter": {2: "5792\n", 8: "5669\n"}}
	var progs []program
	for _, th := range []int{2, 4, 8} {
		src := treeSource(th, 24/th, e2eDepth)
		progs = append(progs,
			program{fmt.Sprintf("tree/threads%d", th), src, nil, "serial"},
			program{fmt.Sprintf("tree/threads%d/amplified", th), src, &core.Options{}, "ptmalloc"})
	}
	for _, w := range []struct{ name, src string }{
		{"treechurn", treeSource(escThreads, 6, e2eDepth)},
		{"msgring", escRingSource(16)},
	} {
		progs = append(progs,
			program{"escape/" + w.name + "/classic", w.src, &core.Options{}, "hoard"},
			program{"escape/" + w.name + "/escape", w.src, &core.Options{Escape: true}, "hoard"})
	}
	car := goStrings(t, filepath.Join("..", "..", "examples", "cartree", "main.go"), "carProgram")[0]
	progs = append(progs,
		program{"car", car, nil, "ptmalloc"},
		program{"car/amplified", car, &core.Options{}, "serial"})
	// Unsynchronized read-modify-writes of one shared field: the
	// printed total depends on how the threads' loads and stores
	// interleave in virtual time.
	progs = append(progs, program{"racy_counter", `
class Counter {
public:
    Counter() { n = 0; }
    int n;
};
void bump(Counter* c, int k) {
    for (int i = 0; i < 300; i = i + 1) {
        int v = c->n;
        for (int j = 0; j < k; j = j + 1) { v = v + 1; }
        c->n = v;
    }
}
int main() {
    Counter* c = new Counter();
    for (int t = 1; t <= 6; t = t + 1) { spawn bump(c, t); }
    join;
    print(c->n);
    delete c;
    return 0;
}`, nil, "serial"})
	for seed := int64(0); seed < 20; seed++ {
		for th := 1; th <= 8; th++ {
			src := mccgen.Generate(mccgen.Config{Seed: seed, Threads: th, Iterations: 6})
			progs = append(progs, program{fmt.Sprintf("mccgen/seed%d/threads%d", seed, th), src, nil, "ptmalloc"})
		}
	}
	for _, pr := range progs {
		prog, err := analyze(pr.src)
		if err == nil && pr.rewrite != nil {
			_, prog, _, err = core.RewriteProgram(prog, *pr.rewrite)
		}
		if err != nil {
			t.Fatalf("%s: %v", pr.name, err)
		}
		p, err := vm.Compile(prog)
		if err != nil {
			t.Fatalf("%s: %v", pr.name, err)
		}
		for _, procs := range []int{2, 8} {
			cfg := vm.Config{Processors: procs, Strategy: pr.strategy}
			ahead, err := vm.Run(p, cfg)
			if err != nil {
				t.Fatalf("%s P=%d: %v", pr.name, procs, err)
			}
			cfg.Tracer = dropEvents{}
			unit, err := vm.Run(p, cfg)
			if err != nil {
				t.Fatalf("%s P=%d traced: %v", pr.name, procs, err)
			}
			if !reflect.DeepEqual(ahead.Counters, unit.Counters) {
				t.Errorf("%s P=%d: counters diverge\nrun-ahead: %+v\nper unit:  %+v", pr.name, procs, ahead.Counters, unit.Counters)
			}
			if ahead.Output != unit.Output || ahead.ExitCode != unit.ExitCode {
				t.Errorf("%s P=%d: output or exit code diverge: %q/%d (run-ahead), %q/%d (per unit)",
					pr.name, procs, ahead.Output, ahead.ExitCode, unit.Output, unit.ExitCode)
			}
			if want, ok := pinned[pr.name][procs]; ok && ahead.Output != want {
				t.Errorf("%s P=%d: output %q, pinned %q", pr.name, procs, ahead.Output, want)
			}
		}
	}
}
