package bench

import (
	"fmt"
	"strings"
	"time"

	"amplify/internal/core"
	"amplify/internal/interp"
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

// e2eCell addresses one (row, thread-count) execution.
type e2eCell struct {
	row     e2eRow
	threads int
}

// e2eResult is the memoized measurement of one cell.
type e2eResult struct {
	Makespan int64
	Allocs   int64
	// Heap numbers for the report's heap map (schema v3).
	Footprint int64
	PeakBytes int64
	IntFragBP int64
	ExtFragBP int64
}

// e2ePerThread returns the trees-per-thread base count for the
// Runner's size tier.
func (r *Runner) e2ePerThread() int {
	if r.Trees < 2000 { // quick mode
		return 60
	}
	return 120
}

// endToEndCells enumerates every execution EndToEnd needs.
func (r *Runner) endToEndCells() []e2eCell {
	var cells []e2eCell
	for _, row := range e2eRows() {
		for _, th := range e2eThreadGrid {
			cells = append(cells, e2eCell{row: row, threads: th})
		}
	}
	return cells
}

// e2eKey names an end-to-end memo cell.
func e2eKey(cell e2eCell) string {
	return fmt.Sprintf("e2e/%s/threads%d", cell.row.name, cell.threads)
}

// runEndToEndCell pre-processes (for the amplified row) and executes
// one MiniCC program on the bytecode VM, memoized. On the quick sizes
// the tree-walking interpreter re-runs the same program as a
// cross-check: both engines share the allocator, pool and simulator
// layers, so heap behavior must agree exactly and virtual time to
// within the engines' instruction-accounting difference.
func (r *Runner) runEndToEndCell(cell e2eCell) (e2eResult, error) {
	v, err := r.cells.do(e2eKey(cell), func() (any, error) {
		// Fixed total work split across threads, as in the speedup
		// experiments: 8*perThread trees overall.
		src := treeSource(cell.threads, r.e2ePerThread()*8/cell.threads, e2eDepth)
		if cell.row.amplify {
			out, _, err := core.Rewrite(src, core.Options{})
			if err != nil {
				return nil, err
			}
			src = out
		}
		res, err := vm.RunSource(src, vm.Config{Strategy: cell.row.alloc, NoOpt: r.VMNoOpt})
		if err != nil {
			return nil, err
		}
		if res.ExitCode != 0 {
			return nil, fmt.Errorf("endtoend %s/%d: exit code %d", cell.row.name, cell.threads, res.ExitCode)
		}
		if r.quick {
			if err := crossCheckInterp(src, cell, res); err != nil {
				return nil, err
			}
		}
		return e2eResult{
			Makespan:  res.Makespan,
			Allocs:    res.Alloc.Allocs,
			Footprint: res.Footprint,
			PeakBytes: res.Alloc.PeakBytes,
			IntFragBP: fragBP(res.Heap.ReqBytes, res.Heap.GrantedBytes),
			ExtFragBP: fragBP(res.Heap.LargestFree, res.Heap.FreeBytes),
		}, nil
	})
	if err != nil {
		return e2eResult{}, err
	}
	return v.(e2eResult), nil
}

// crossCheckInterp validates a VM measurement against the tree-walking
// interpreter: identical program output, exit code and heap-allocation
// count, and a virtual-time ratio within the engines' documented 2x
// cost-accounting band.
func crossCheckInterp(src string, cell e2eCell, vres vm.Result) error {
	ires, err := interp.RunSource(src, interp.Config{Strategy: cell.row.alloc})
	if err != nil {
		return fmt.Errorf("endtoend cross-check %s/%d: interp: %w", cell.row.name, cell.threads, err)
	}
	if ires.ExitCode != vres.ExitCode {
		return fmt.Errorf("endtoend cross-check %s/%d: exit code vm %d != interp %d",
			cell.row.name, cell.threads, vres.ExitCode, ires.ExitCode)
	}
	if ires.Output != vres.Output {
		return fmt.Errorf("endtoend cross-check %s/%d: engine outputs differ", cell.row.name, cell.threads)
	}
	if ires.Alloc.Allocs != vres.Alloc.Allocs {
		return fmt.Errorf("endtoend cross-check %s/%d: heap allocations vm %d != interp %d",
			cell.row.name, cell.threads, vres.Alloc.Allocs, ires.Alloc.Allocs)
	}
	if ratio := float64(vres.Makespan) / float64(ires.Makespan); ratio < 0.5 || ratio > 2.0 {
		return fmt.Errorf("endtoend cross-check %s/%d: makespan ratio %.2f (vm %d, interp %d) outside 2x band",
			cell.row.name, cell.threads, ratio, vres.Makespan, ires.Makespan)
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
	v, err := r.cells.do("e2e/enginespeedup", func() (any, error) {
		src := treeSource(1, r.e2ePerThread()*8, e2eDepth)
		measure := func(noOpt bool) (vm.Result, float64, error) {
			var res vm.Result
			best := 0.0
			for i := 0; i < 3; i++ {
				start := time.Now()
				rr, err := vm.RunSource(src, vm.Config{NoOpt: noOpt})
				sec := time.Since(start).Seconds()
				if err != nil {
					return vm.Result{}, 0, err
				}
				if i == 0 || sec < best {
					best = sec
				}
				res = rr
			}
			return res, best, nil
		}
		opt, optSec, err := measure(false)
		if err != nil {
			return nil, err
		}
		slow, slowSec, err := measure(true)
		if err != nil {
			return nil, err
		}
		if opt.Makespan != slow.Makespan || opt.Alloc != slow.Alloc ||
			opt.Output != slow.Output || opt.ExitCode != slow.ExitCode {
			return nil, fmt.Errorf("endtoend: optimizer changed simulated results (makespan %d vs %d)",
				opt.Makespan, slow.Makespan)
		}
		return slowSec / optSec, nil
	})
	if err != nil {
		return 0, err
	}
	return v.(float64), nil
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
	base, err := r.runEndToEndCell(e2eCell{row: e2eRows()[0], threads: 1})
	if err != nil {
		return nil, err
	}
	var ampAllocs, plainAllocs int64
	for _, row := range e2eRows() {
		vals := make([]float64, 0, len(e2eThreadGrid))
		for _, th := range e2eThreadGrid {
			res, err := r.runEndToEndCell(e2eCell{row: row, threads: th})
			if err != nil {
				return nil, err
			}
			if th == 8 {
				if row.amplify {
					ampAllocs = res.Allocs
				} else if row.name == "ptmalloc" {
					plainAllocs = res.Allocs
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

// EndToEnd renders EndToEndFigure as text.
func (r *Runner) EndToEnd() (string, error) {
	fig, err := r.EndToEndFigure()
	if err != nil {
		return "", err
	}
	return fig.Render(), nil
}
