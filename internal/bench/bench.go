// Package bench regenerates every table and figure of the paper's
// evaluation (§4-5): Table 1 and Figures 4-11, plus the numeric claims
// of §5.1/§5.2. Each experiment returns a Figure — named series over a
// thread-count axis — that renders as an aligned text table with the
// same rows the paper plots.
package bench

import (
	"fmt"
	"strings"
	"sync"

	"amplify/internal/bgw"
	"amplify/internal/sim"
	"amplify/internal/workload"

	_ "amplify/internal/hoard"
	_ "amplify/internal/lfalloc"
	_ "amplify/internal/lkmalloc"
	_ "amplify/internal/ptmalloc"
	_ "amplify/internal/serial"
	_ "amplify/internal/smartheap"
)

// Calibrated experiment parameters: the per-node application work that
// dilutes raw allocator cost the way the paper's synthetic programs do.
const (
	InitWork = 8
	UseWork  = 5
)

// Runner executes experiments, memoizing workload runs so the scaleup
// figures reuse the speedup figures' measurements. A Runner is safe for
// concurrent use: the memo is a singleflight store, so Precompute can
// warm cells on a worker pool while (or before) experiments assemble
// their tables from it.
type Runner struct {
	// Trees per synthetic run and CDRs per BGw run.
	Trees int
	CDRs  int
	// Threads is the x-axis of Figures 4-9; WideThreads of Figure 10
	// (it extends past the processor count); BGwThreads of Figure 11.
	Threads     []int
	WideThreads []int
	BGwThreads  []int
	// Jobs bounds how many simulations Precompute (and the internally
	// parallel experiments) run concurrently on the host. 0 or 1 means
	// sequential. Parallelism never changes results: every simulation
	// is an isolated virtual machine, and output is assembled from the
	// memo by key, not by completion order.
	Jobs int
	// VMNoOpt disables the VM's bytecode optimizer for the experiments
	// that execute MiniCC programs (endtoend). Simulated results must
	// not change — CI diffs the two reports' makespans — only host
	// wall-clock does.
	VMNoOpt bool
	// ContendAllocs filters the allocators the contend experiment
	// compares; nil or empty means the full workload.ChurnStrategies()
	// roster. Names must be registered alloc strategies (the
	// amplifybench -alloc flag validates before setting this).
	ContendAllocs []string

	quick bool
	cells cellStore
	// EngineSpeedup's host measurement, taken once.
	speedupOnce sync.Once
	speedup     float64
	speedupErr  error
	// contendGridOverride substitutes the contention grid (tests only).
	contendGridOverride []contendPoint
}

// NewRunner returns a Runner with the full experiment sizes, or reduced
// ones when quick is set.
func NewRunner(quick bool) *Runner {
	r := &Runner{
		Trees:       3200,
		CDRs:        5000,
		Threads:     []int{1, 2, 3, 4, 5, 6, 7, 8},
		WideThreads: []int{1, 2, 4, 6, 8, 10, 12, 14, 16},
		BGwThreads:  []int{1, 2, 4, 6, 8},
		quick:       quick,
	}
	if quick {
		r.Trees = 1200
		r.CDRs = 1500
		r.Threads = []int{1, 2, 4, 8}
		r.WideThreads = []int{1, 2, 4, 8, 12, 16}
		r.BGwThreads = []int{1, 2, 8}
	}
	return r
}

// treeCell is one synthetic tree run on a machine with the given
// processor count. procs 0 is canonicalized to the default
// 8-processor machine so the sensitivity sweep's 8P column shares the
// speedup figures' measurements.
func (r *Runner) treeCell(strategy string, depth, threads, procs int) cell {
	if procs == 0 {
		procs = 8
	}
	return cell{fmt.Sprintf("tree/%s/depth%d/threads%d/procs%d", strategy, depth, threads, procs),
		treeRun(strategy, workload.TreeConfig{
			Depth:      depth,
			Trees:      r.Trees,
			Threads:    threads,
			Processors: procs,
			InitWork:   InitWork,
			UseWork:    UseWork,
		})}
}

// treeRun measures one tree run; its result is a workload.Result.
func treeRun(strategy string, cfg workload.TreeConfig) func(sim.Tracer) (measured, error) {
	return func(tr sim.Tracer) (measured, error) {
		c := cfg
		c.Tracer = tr
		res, err := workload.RunTree(strategy, c)
		m := measuredOf(res, res.Makespan, res.Footprint, res.Alloc, res.Heap, res.Sim)
		m.counters = append(simCounters("cells.tree", res.Sim, res.Alloc),
			counter{"pool.hits", res.PoolHits},
			counter{"pool.misses", res.PoolMisses},
			counter{"pool.failed_trylocks", res.FailedTryLocks})
		return m, err
	}
}

// run measures (or recalls) one synthetic tree run on the default
// 8-processor machine.
func (r *Runner) run(strategy string, depth, threads int) (workload.Result, error) {
	return resultOf[workload.Result](r, r.treeCell(strategy, depth, threads, 0))
}

// Speedup is the paper's metric: execution time of one thread under the
// standard (serial) heap manager divided by this run's execution time.
func (r *Runner) Speedup(strategy string, depth, threads int) (float64, error) {
	base, err := r.run("serial", depth, 1)
	if err != nil {
		return 0, err
	}
	res, err := r.run(strategy, depth, threads)
	if err != nil {
		return 0, err
	}
	return float64(base.Makespan) / float64(res.Makespan), nil
}

// bgwCell is one BGw run.
func (r *Runner) bgwCell(strategy string, amplify, objects bool, threads int) cell {
	return cell{fmt.Sprintf("bgw/%s/amplify%v/objects%v/threads%d", strategy, amplify, objects, threads),
		bgwRun(bgw.Config{
			CDRs:       r.CDRs,
			Threads:    threads,
			Strategy:   strategy,
			Amplify:    amplify,
			ObjectsToo: objects,
		})}
}

// bgwRun measures one BGw run; its result is a bgw.Result.
func bgwRun(cfg bgw.Config) func(sim.Tracer) (measured, error) {
	return func(tr sim.Tracer) (measured, error) {
		c := cfg
		c.Tracer = tr
		res, err := bgw.Run(c)
		m := measuredOf(res, res.Makespan, res.Footprint, res.Alloc, res.Heap, res.Sim)
		m.counters = append(simCounters("cells.bgw", res.Sim, res.Alloc),
			counter{"pool.hits", res.PoolHits},
			counter{"shadow.reuses", res.ShadowReuses})
		return m, err
	}
}

// runBGw measures (or recalls) one BGw run.
func (r *Runner) runBGw(strategy string, amplify, objects bool, threads int) (bgw.Result, error) {
	return resultOf[bgw.Result](r, r.bgwCell(strategy, amplify, objects, threads))
}

// Series is one plotted line: a method and its value per x-axis entry.
type Series struct {
	Name   string
	Values []float64
}

// Figure is one regenerated table or figure.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	X      []int
	Series []Series
	Notes  []string
}

// Render formats the figure as an aligned text table.
func (f *Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s. %s\n", f.ID, f.Title)
	if f.YLabel != "" {
		fmt.Fprintf(&b, "(%s vs %s)\n", f.YLabel, f.XLabel)
	}
	width := 9
	for _, s := range f.Series {
		if len(s.Name) > width {
			width = len(s.Name)
		}
	}
	fmt.Fprintf(&b, "%-*s", width+2, f.XLabel)
	for _, x := range f.X {
		fmt.Fprintf(&b, "%8d", x)
	}
	b.WriteByte('\n')
	for _, s := range f.Series {
		fmt.Fprintf(&b, "%-*s", width+2, s.Name)
		for _, v := range s.Values {
			fmt.Fprintf(&b, "%8.2f", v)
		}
		b.WriteByte('\n')
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the figure as comma-separated values: a header row with
// the x-axis, then one row per series.
func (f *Figure) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "series")
	for _, x := range f.X {
		fmt.Fprintf(&b, ",%d", x)
	}
	b.WriteByte('\n')
	for _, s := range f.Series {
		b.WriteString(s.Name)
		for _, v := range s.Values {
			fmt.Fprintf(&b, ",%.4f", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Table1 reproduces Table 1: the size of the data structures in the
// three test cases.
func Table1() string {
	var b strings.Builder
	b.WriteString("Table 1. Size of data structures in test cases\n")
	b.WriteString("Test case  Tree depth  Number of objects\n")
	for i, depth := range []int{1, 3, 5} {
		fmt.Fprintf(&b, "%9d  %10d  %17d\n", i+1, depth, workload.Nodes(depth))
	}
	return b.String()
}

// The strategies plotted by the speedup figures and by Figure 10.
var (
	speedupStrategies  = []string{"ptmalloc", "hoard", "amplify"}
	handmadeStrategies = []string{"ptmalloc", "hoard", "amplify", "handmade"}
)

// depthOfCase maps the paper's test case number to its tree depth.
func depthOfCase(tc int) int { return []int{0, 1, 3, 5}[tc] }

// SpeedupFigure reproduces Figures 4, 5 and 6: speedup per thread count
// for ptmalloc, Hoard and Amplify on the given test case.
func (r *Runner) SpeedupFigure(testCase int) (*Figure, error) {
	depth := depthOfCase(testCase)
	f := &Figure{
		ID:     fmt.Sprintf("Figure %d", 3+testCase),
		Title:  fmt.Sprintf("Speedup graph for test case %d (tree depth %d, %d objects)", testCase, depth, workload.Nodes(depth)),
		XLabel: "threads",
		YLabel: "speedup vs 1-thread standard heap",
		X:      r.Threads,
	}
	for _, s := range speedupStrategies {
		vals := make([]float64, 0, len(r.Threads))
		for _, th := range r.Threads {
			v, err := r.Speedup(s, depth, th)
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
		}
		f.Series = append(f.Series, Series{Name: s, Values: vals})
	}
	return f, nil
}

// ScaleupFigure reproduces Figures 7, 8 and 9: the speedup of each
// method normalized so its one-thread value is 1.
func (r *Runner) ScaleupFigure(testCase int) (*Figure, error) {
	sp, err := r.SpeedupFigure(testCase)
	if err != nil {
		return nil, err
	}
	depth := depthOfCase(testCase)
	f := &Figure{
		ID:     fmt.Sprintf("Figure %d", 6+testCase),
		Title:  fmt.Sprintf("Scaleup graph for test case %d (tree depth %d)", testCase, depth),
		XLabel: "threads",
		YLabel: "scaleup (speedup normalized to 1 thread)",
		X:      sp.X,
	}
	for _, s := range sp.Series {
		vals := make([]float64, len(s.Values))
		for i, v := range s.Values {
			vals[i] = v / s.Values[0]
		}
		f.Series = append(f.Series, Series{Name: s.Name, Values: vals})
	}
	return f, nil
}

// HandmadeFigure reproduces Figure 10: test case 2 with the handmade
// structure pool included and thread counts past the processor count.
func (r *Runner) HandmadeFigure() (*Figure, error) {
	depth := depthOfCase(2)
	f := &Figure{
		ID:     "Figure 10",
		Title:  "Speedup graph for test case 2 (including handmade structure pool)",
		XLabel: "threads",
		YLabel: "speedup vs 1-thread standard heap",
		X:      r.WideThreads,
		Notes: []string{
			"Hoard stops scaling once threads exceed the 8 processors (thread-id modulation maps colliding threads to the same heap).",
			"The handmade pool is the theoretical maximum for a pre-processor.",
		},
	}
	for _, s := range handmadeStrategies {
		vals := make([]float64, 0, len(r.WideThreads))
		for _, th := range r.WideThreads {
			v, err := r.Speedup(s, depth, th)
			if err != nil {
				return nil, err
			}
			vals = append(vals, v)
		}
		f.Series = append(f.Series, Series{Name: s, Values: vals})
	}
	return f, nil
}

// bgwVariant is one plotted line of Figure 11.
type bgwVariant struct {
	name             string
	strategy         string
	amplify, objects bool
}

func bgwVariants() []bgwVariant {
	return []bgwVariant{
		{"serial", "serial", false, false},
		{"amplify alone", "serial", true, true},
		{"smartheap", "smartheap", false, false},
		{"smartheap+amplify", "smartheap", true, false},
	}
}

// BGwFigure reproduces Figure 11: BGw CDR-processing speedup with
// SmartHeap alone and SmartHeap combined with Amplify (plus the serial
// allocator and Amplify-alone context the section discusses).
func (r *Runner) BGwFigure() (*Figure, error) {
	base, err := r.runBGw("serial", false, false, 1)
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID:     "Figure 11",
		Title:  fmt.Sprintf("Speedup graph for BGw (%d CDRs)", r.CDRs),
		XLabel: "threads",
		YLabel: "speedup vs 1-thread standard heap",
		X:      r.BGwThreads,
	}
	for _, v := range bgwVariants() {
		vals := make([]float64, 0, len(r.BGwThreads))
		for _, th := range r.BGwThreads {
			res, err := r.runBGw(v.strategy, v.amplify, v.objects, th)
			if err != nil {
				return nil, err
			}
			vals = append(vals, float64(base.Makespan)/float64(res.Makespan))
		}
		f.Series = append(f.Series, Series{Name: v.name, Values: vals})
	}
	// The paper's headline: percentage gain of SmartHeap+Amplify over
	// SmartHeap at each thread count.
	var gains []string
	for i, th := range r.BGwThreads {
		sh := f.Series[2].Values[i]
		amp := f.Series[3].Values[i]
		gains = append(gains, fmt.Sprintf("%dT %.0f%%", th, (amp/sh-1)*100))
	}
	f.Notes = append(f.Notes, "Amplify gain over SmartHeap alone: "+strings.Join(gains, ", ")+" (paper: 17%).")
	f.Notes = append(f.Notes, "Amplify alone does not make BGw scale: half the allocations come from libraries the pre-processor cannot rewrite (§5.2).")
	return f, nil
}

// Claims verifies the quantitative claims of §5.1/§5.2 and returns a
// textual report.
func (r *Runner) Claims() (string, error) {
	var b strings.Builder
	b.WriteString("Quantitative claims of §5.1/§5.2\n")

	// Claim: Amplify up to ~6x more efficient than the best C-library
	// allocator tested.
	best := 0.0
	where := ""
	for tc := 1; tc <= 3; tc++ {
		depth := depthOfCase(tc)
		for _, th := range r.Threads {
			amp, err := r.Speedup("amplify", depth, th)
			if err != nil {
				return "", err
			}
			for _, lib := range []string{"ptmalloc", "hoard"} {
				l, err := r.Speedup(lib, depth, th)
				if err != nil {
					return "", err
				}
				if f := amp / l; f > best {
					best = f
					where = fmt.Sprintf("case %d, %d threads, vs %s", tc, th, lib)
				}
			}
		}
	}
	fmt.Fprintf(&b, "  max Amplify advantage over a C-library allocator: %.1fx (%s); paper claims up to 6x\n", best, where)

	// Claim: very low number of failed lock attempts in the pools.
	res, err := r.run("amplify", 3, 8)
	if err != nil {
		return "", err
	}
	ops := res.PoolHits + res.PoolMisses
	fmt.Fprintf(&b, "  failed lock attempts per pool operation (case 2, 8 threads): %d / %d = %.5f\n",
		res.FailedTryLocks, ops, float64(res.FailedTryLocks)/float64(ops))

	// Claim: the pre-processor removes heap allocations almost entirely.
	plain, err := r.run("ptmalloc", 3, 8)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "  heap allocations, case 2, 8 threads: plain %d -> amplified %d (%.2f%%)\n",
		plain.Alloc.Allocs, res.Alloc.Allocs, 100*float64(res.Alloc.Allocs)/float64(plain.Alloc.Allocs))

	// Claim: the 1->2 thread drop of Figure 4 comes from lock elision.
	s1, err := r.Speedup("amplify", 1, 1)
	if err != nil {
		return "", err
	}
	s2, err := r.Speedup("amplify", 1, 2)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "  Figure 4 drop: amplify speedup %.2f at 1 thread vs %.2f at 2 threads (lock elision removed)\n", s1, s2)

	// Claim: memory consumption stays acceptable.
	amp, err := r.run("amplify", 3, 8)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "  footprint, case 2, 8 threads: plain %d bytes -> amplified %d bytes (%.2fx)\n",
		plain.Footprint, amp.Footprint, float64(amp.Footprint)/float64(plain.Footprint))

	// Claim (§5.2): roughly half of BGw's allocations are library-made.
	bres, err := r.runBGw("serial", false, false, 2)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "  BGw library allocation share: %d / %d = %.0f%%\n",
		bres.LibAllocs, bres.LibAllocs+bres.AppAllocs,
		100*float64(bres.LibAllocs)/float64(bres.LibAllocs+bres.AppAllocs))

	// Claim (§5.2): shadow realloc reuse dominates.
	bamp, err := r.runBGw("smartheap", true, false, 2)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "  BGw shadow realloc reuse rate: %.1f%%\n",
		100*float64(bamp.ShadowReuses)/float64(int64(r.CDRs)*6))
	return b.String(), nil
}
