package bench

import (
	"fmt"
	"strings"
	"time"

	"amplify/internal/cc"
	"amplify/internal/core"
	"amplify/internal/interp"
	"amplify/internal/sim"
	"amplify/internal/vm"
)

// treeSource builds the paper's synthetic test program in MiniCC: t
// threads, each churning binary trees of the given depth. The node is
// the 20-byte object of §4 (two 32-bit child pointers, 12 bytes of
// dummy data); after amplification it grows to 28 bytes — Table 1's
// sizes fall out of the front end's layout rules.
func treeSource(threads, treesPerThread, depth int) string {
	var b strings.Builder
	b.WriteString(`
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

void churn(int trees, int depth) {
    int total = 0;
    for (int t = 0; t < trees; t = t + 1) {
        Node* root = new Node(depth, t);
        total = total + root->sum();
        delete root;
    }
}

int main() {
`)
	for i := 0; i < threads; i++ {
		fmt.Fprintf(&b, "    spawn churn(%d, %d);\n", treesPerThread, depth)
	}
	b.WriteString("    join;\n    return 0;\n}\n")
	return b.String()
}

const e2eDepth = 3

var e2eThreadGrid = []int{1, 2, 4, 8}

// e2eRow is one plotted line of the end-to-end figure.
type e2eRow struct {
	name    string
	amplify bool
	alloc   string
}

func e2eRows() []e2eRow {
	return []e2eRow{
		{"serial", false, "serial"},
		{"ptmalloc", false, "ptmalloc"},
		{"hoard", false, "hoard"},
		{"amplify", true, "serial"},
	}
}

// e2ePerThread returns the trees-per-thread base count for the
// Runner's size tier.
func (r *Runner) e2ePerThread() int {
	if r.Trees < 2000 { // quick mode
		return 60
	}
	return 120
}

// e2eCell is one end-to-end program: the synthetic tree churn at the
// given thread count, pre-processed for the amplified row.
func (r *Runner) e2eCell(row e2eRow, threads int) cell {
	var rewrite *core.Options
	if row.amplify {
		rewrite = &core.Options{}
	}
	// Fixed total work split across threads, as in the speedup
	// experiments: 8*perThread trees overall.
	src := treeSource(threads, r.e2ePerThread()*8/threads, e2eDepth)
	return r.vmCell(fmt.Sprintf("e2e/%s/threads%d", row.name, threads), src, rewrite, row.alloc)
}

// vmCell pre-processes src (when rewrite is set) and executes it on the
// bytecode VM over the strategy's allocator; its result is a
// vm.Result. On the quick sizes the tree-walking interpreter re-runs
// the same program as a cross-check: both engines share the allocator,
// pool and simulator layers, so heap behavior must agree exactly and
// virtual time to within the engines' instruction-accounting
// difference. VM cells count themselves as cells.e2e and their heap
// allocations in Report.Metrics.
func (r *Runner) vmCell(key, src string, rewrite *core.Options, strategy string) cell {
	return cell{key, func(tr sim.Tracer) (measured, error) {
		prog, err := analyze(src)
		if err == nil && rewrite != nil {
			_, prog, _, err = core.RewriteProgram(prog, *rewrite)
		}
		if err != nil {
			return measured{}, err
		}
		p, err := vm.CompileOpts(prog, vm.Options{NoOpt: r.VMNoOpt})
		if err != nil {
			return measured{}, err
		}
		res, err := vm.Run(p, vm.Config{Strategy: strategy, Tracer: tr})
		if err != nil {
			return measured{}, err
		}
		if res.ExitCode != 0 {
			return measured{}, fmt.Errorf("bench: %s: exit code %d", key, res.ExitCode)
		}
		if r.quick {
			if err := crossCheckInterp(p.Src, strategy, key, res); err != nil {
				return measured{}, err
			}
		}
		m := measuredOf(res, res.Counters)
		m.counters = []counter{{"cells.e2e", 1}, {"alloc.allocs", res.Alloc.Allocs}}
		return m, nil
	}}
}

// analyze parses and analyzes a MiniCC program.
func analyze(src string) (*cc.Program, error) {
	prog, err := cc.Parse(src)
	if err == nil {
		err = cc.Analyze(prog)
	}
	return prog, err
}

// compile parses, analyzes and compiles a MiniCC program for the VM.
func compile(src string, noOpt bool) (*vm.Program, error) {
	prog, err := analyze(src)
	if err != nil {
		return nil, err
	}
	return vm.CompileOpts(prog, vm.Options{NoOpt: noOpt})
}

// crossCheckInterp validates a VM measurement against the tree-walking
// interpreter: identical program output, exit code and heap-allocation
// count, and a virtual-time ratio within the engines' documented 2x
// cost-accounting band.
func crossCheckInterp(prog *cc.Program, strategy, key string, vres vm.Result) error {
	ires, err := interp.Run(prog, vm.Config{Strategy: strategy})
	if err != nil {
		return fmt.Errorf("bench: cross-check %s: interp: %w", key, err)
	}
	if ires.ExitCode != vres.ExitCode {
		return fmt.Errorf("bench: cross-check %s: exit code vm %d != interp %d",
			key, vres.ExitCode, ires.ExitCode)
	}
	if ires.Output != vres.Output {
		return fmt.Errorf("bench: cross-check %s: engine outputs differ", key)
	}
	if ires.Alloc.Allocs != vres.Alloc.Allocs {
		return fmt.Errorf("bench: cross-check %s: heap allocations vm %d != interp %d",
			key, vres.Alloc.Allocs, ires.Alloc.Allocs)
	}
	if ratio := float64(vres.Makespan) / float64(ires.Makespan); ratio < 0.5 || ratio > 2.0 {
		return fmt.Errorf("bench: cross-check %s: makespan ratio %.2f (vm %d, interp %d) outside 2x band",
			key, ratio, vres.Makespan, ires.Makespan)
	}
	return nil
}

// EngineSpeedup measures, on the host, how much the VM's bytecode
// optimizer speeds up the 1-thread end-to-end program, and verifies
// along the way that it changes nothing the simulation observes. The
// ratio is host wall-clock (best of three runs per level), so it goes
// only into the JSON report's engine_speedup field — never into the
// deterministic figure text that the parallel-vs-sequential tests and
// CI diff byte-for-byte.
func (r *Runner) EngineSpeedup() (float64, error) {
	r.speedupOnce.Do(func() { r.speedup, r.speedupErr = r.engineSpeedup() })
	return r.speedup, r.speedupErr
}

// engineSpeedup is EngineSpeedup's measurement.
func (r *Runner) engineSpeedup() (float64, error) {
	src := treeSource(1, r.e2ePerThread()*8, e2eDepth)
	measure := func(noOpt bool) (vm.Result, float64, error) {
		var res vm.Result
		best := 0.0
		for i := 0; i < 3; i++ {
			start := time.Now()
			p, err := compile(src, noOpt)
			if err == nil {
				res, err = vm.Run(p, vm.Config{})
			}
			sec := time.Since(start).Seconds()
			if err != nil {
				return vm.Result{}, 0, err
			}
			if i == 0 || sec < best {
				best = sec
			}
		}
		return res, best, nil
	}
	opt, optSec, err := measure(false)
	if err != nil {
		return 0, err
	}
	slow, slowSec, err := measure(true)
	if err != nil {
		return 0, err
	}
	if opt.Makespan != slow.Makespan || opt.Alloc != slow.Alloc ||
		opt.Output != slow.Output || opt.ExitCode != slow.ExitCode {
		return 0, fmt.Errorf("endtoend: optimizer changed simulated results (makespan %d vs %d)",
			opt.Makespan, slow.Makespan)
	}
	return slowSec / optSec, nil
}

// EndToEndFigure exercises the complete pipeline of the paper with the
// real tool: the MiniCC synthetic program is pre-processed by
// internal/core and executed by the bytecode VM on the simulated SMP,
// next to the untouched program over the C-library allocators. This is
// the experiment that validates that the *pre-processor output itself*
// — not a hand-written equivalent — delivers the speedups of Figures
// 4-6. On quick sizes, every VM run is cross-checked against the
// tree-walking interpreter.
func (r *Runner) EndToEndFigure() (*Figure, error) {
	perThread := r.e2ePerThread()
	fig := &Figure{
		ID:     "End-to-end",
		Title:  fmt.Sprintf("Pre-processed MiniCC program, test case 2 shape (depth %d, %d trees/thread)", e2eDepth, perThread),
		XLabel: "threads",
		YLabel: "speedup vs 1-thread standard heap",
		X:      e2eThreadGrid,
	}
	base, err := resultOf[vm.Result](r, r.e2eCell(e2eRows()[0], 1))
	if err != nil {
		return nil, err
	}
	var ampAllocs, plainAllocs int64
	for _, row := range e2eRows() {
		vals := make([]float64, 0, len(e2eThreadGrid))
		for _, th := range e2eThreadGrid {
			res, err := resultOf[vm.Result](r, r.e2eCell(row, th))
			if err != nil {
				return nil, err
			}
			if th == 8 {
				if row.amplify {
					ampAllocs = res.Alloc.Allocs
				} else if row.name == "ptmalloc" {
					plainAllocs = res.Alloc.Allocs
				}
			}
			vals = append(vals, float64(base.Makespan)/float64(res.Makespan))
		}
		fig.Series = append(fig.Series, Series{Name: row.name, Values: vals})
	}
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("heap allocations at 8 threads: plain %d -> pre-processed %d", plainAllocs, ampAllocs),
		"the amplified rows run the ACTUAL pre-processor output on the bytecode VM (interpreter cross-checked on quick sizes)")
	if _, err := r.EngineSpeedup(); err != nil {
		return nil, err
	}
	fig.Notes = append(fig.Notes,
		"bytecode optimizer verified: -O and -no-opt produce identical simulated results (host speedup in the JSON engine_speedup field)")
	return fig, nil
}
