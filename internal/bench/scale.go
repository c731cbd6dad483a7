package bench

import (
	"fmt"
	"strings"
	"time"

	"amplify/internal/workload"
)

// The scale experiment stretches the paper's Figure 10 shape — tree
// churn with more threads than processors — to datacenter-scale
// machines: P ∈ {8, 64, 1024} simulated processors and up to one
// million simulated threads, each building, using and destroying one
// depth-1 tree through the Amplify pool runtime. The simulated
// makespans are deterministic and land in the BENCH report like every
// other cell; the table additionally reports host wall-clock and
// simulation throughput (cache accesses + lock acquisitions per host
// second), which are host-dependent and excluded from the report.
//
// The grid is the scheduler tentpole's showcase: a million concurrent
// threads oversubscribing 1024 processors exercises the ready heap,
// the pooled worker coroutines and the direct preemption handoff at a
// scale the original channel-based scheduler could not finish in a CI
// budget.

// scalePoint is one (processors, threads) cell of the scale grid.
type scalePoint struct {
	Procs   int
	Threads int
}

// scaleGrid returns the grid for the current mode. Quick mode keeps
// one representative cell per processor count — including the
// million-thread headline cell, which is the point of the experiment —
// so CI exercises the full range without the intermediate sizes.
func (r *Runner) scaleGrid() []scalePoint {
	if r.quick {
		return []scalePoint{
			{8, 10_000},
			{64, 100_000},
			{1024, 1_000_000},
		}
	}
	return []scalePoint{
		{8, 1_000},
		{8, 10_000},
		{8, 100_000},
		{64, 10_000},
		{64, 100_000},
		{1024, 100_000},
		{1024, 1_000_000},
	}
}

// scaleKey names a scale memo cell.
func scaleKey(procs, threads int) string {
	return fmt.Sprintf("scale/amplify/p%d/threads%d", procs, threads)
}

// scaleCell pairs the deterministic simulation result with the host
// wall-clock of its first computation (memo recalls keep the original
// timing).
type scaleCell struct {
	Res  workload.Result
	Wall float64
}

// runScale executes (or recalls) one scale cell: threads threads, one
// depth-1 tree each, on a P-processor machine under the Amplify pools.
func (r *Runner) runScale(procs, threads int) (scaleCell, error) {
	v, err := r.cells.do(scaleKey(procs, threads), func() (any, error) {
		start := time.Now()
		res, err := workload.RunTree("amplify", workload.TreeConfig{
			Depth:      1,
			Trees:      threads,
			Threads:    threads,
			Processors: procs,
			InitWork:   InitWork,
			UseWork:    UseWork,
		})
		if err != nil {
			return nil, err
		}
		return scaleCell{Res: res, Wall: time.Since(start).Seconds()}, nil
	})
	if err != nil {
		return scaleCell{}, err
	}
	return v.(scaleCell), nil
}

// scaleEvents is the throughput numerator: the simulation events with
// a per-event host cost (cache-line accesses and lock acquisitions).
func scaleEvents(res workload.Result) int64 {
	return res.Sim.CacheHits + res.Sim.CacheMisses + res.Sim.LockAcquires
}

// Scale renders the scale grid. Makespans are deterministic;
// wall-clock and events/sec columns are host measurements.
func (r *Runner) Scale() (string, error) {
	var b strings.Builder
	b.WriteString("Scale grid: tree churn on datacenter-size machines (amplify pools)\n")
	b.WriteString("   procs    threads          makespan      sim events   host wall   Mev/s\n")
	for _, pt := range r.scaleGrid() {
		c, err := r.runScale(pt.Procs, pt.Threads)
		if err != nil {
			return "", err
		}
		ev := scaleEvents(c.Res)
		mevs := 0.0
		if c.Wall > 0 {
			mevs = float64(ev) / c.Wall / 1e6
		}
		fmt.Fprintf(&b, "%8d %10d %17d %15d %10.2fs %7.1f\n",
			pt.Procs, pt.Threads, c.Res.Makespan, ev, c.Wall, mevs)
	}
	return b.String(), nil
}
