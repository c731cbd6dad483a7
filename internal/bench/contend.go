package bench

import (
	"fmt"
	"strings"

	"amplify/internal/sim"
	"amplify/internal/workload"
)

// The contend experiment is the lock-free allocator's showcase: T
// threads per cell hammering one size class with alloc/write/free
// cycles (workload.RunChurn) on P ∈ {8, 64, 1024} simulated
// processors, with thread counts growing past P. Work is fixed per
// thread, so total allocator pressure grows with T and the grid
// exposes the who-wins crossover between the lock-based allocators
// (serial's global mutex, ptmalloc's arenas, hoard's per-thread
// heaps) and lfalloc's bounded-CAS shared stacks. The rendered table
// reports the makespan per strategy plus lfalloc's atomic-operation
// counts per cell; EXPERIMENTS.md carries the crossover analysis.

// contendOps is the fixed per-thread cycle count (reduced in quick
// mode); contendSize keeps every request in one lfalloc size class.
const (
	contendOps      = 60
	contendOpsQuick = 30
	contendSize     = 48
)

// contendPoint is one (processors, threads) cell of the contention grid.
type contendPoint struct {
	Procs   int
	Threads int
}

// contendGrid returns the (P, T) grid for the current mode: threads
// grow from T = P (every thread has its own processor) into heavy
// oversubscription, where the serialization of lock-based allocators
// dominates.
func (r *Runner) contendGrid() []contendPoint {
	if r.contendGridOverride != nil {
		return r.contendGridOverride
	}
	if r.quick {
		return []contendPoint{
			{8, 8}, {8, 64},
			{64, 64}, {64, 512},
			{1024, 1024}, {1024, 8192},
		}
	}
	return []contendPoint{
		{8, 8}, {8, 32}, {8, 128},
		{64, 64}, {64, 256}, {64, 1024},
		{1024, 1024}, {1024, 4096}, {1024, 16384},
	}
}

// contendAllocs returns the allocators the grid compares, honoring
// the Runner's -alloc filter when one is set.
func (r *Runner) contendAllocs() []string {
	if len(r.ContendAllocs) > 0 {
		return r.ContendAllocs
	}
	return workload.ChurnStrategies()
}

// contendOpsPerThread is the per-thread cycle count of the current mode.
func (r *Runner) contendOpsPerThread() int {
	if r.quick {
		return contendOpsQuick
	}
	return contendOps
}

// contendCell is one contention run.
func (r *Runner) contendCell(strategy string, pt contendPoint) cell {
	cfg := workload.ChurnConfig{
		Threads:      pt.Threads,
		OpsPerThread: r.contendOpsPerThread(),
		Size:         contendSize,
		Processors:   pt.Procs,
	}
	return cell{fmt.Sprintf("contend/%s/p%d/threads%d", strategy, pt.Procs, pt.Threads),
		func(tr sim.Tracer) (measured, error) {
			c := cfg
			c.Tracer = tr
			res, err := workload.RunChurn(strategy, c)
			m := measuredOf(res, res.Counters)
			m.counters = simCounters("cells.contend", res.Sim, res.Alloc)
			return m, err
		}}
}

// Contend renders the contention grid: one row per (P, T) cell with
// the makespan of every allocator, lfalloc's atomic-op counts, and a
// per-row winner. All numbers are simulated and deterministic.
func (r *Runner) Contend() (string, error) {
	allocs := r.contendAllocs()
	var b strings.Builder
	fmt.Fprintf(&b, "Contention grid: %d alloc/write/free cycles per thread, %d-byte blocks, one size class\n",
		r.contendOpsPerThread(), contendSize)
	fmt.Fprintf(&b, "%8s %8s", "procs", "threads")
	for _, s := range allocs {
		fmt.Fprintf(&b, " %12s", s)
	}
	fmt.Fprintf(&b, " %10s %8s %10s  %s\n", "CAS", "CASfail", "FAA+loads", "winner")
	for _, pt := range r.contendGrid() {
		fmt.Fprintf(&b, "%8d %8d", pt.Procs, pt.Threads)
		best, bestMS := "", int64(0)
		var cas, casFail, faaLoads int64
		for _, s := range allocs {
			res, err := r.cells.do(r.contendCell(s, pt))
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, " %12d", res.Makespan)
			if best == "" || res.Makespan < bestMS {
				best, bestMS = s, res.Makespan
			}
			if s == "lfalloc" {
				cas = res.Sim.AtomicCAS
				casFail = res.Sim.AtomicCASFailed
				faaLoads = res.Sim.AtomicFAA + res.Sim.AtomicLoads
			}
		}
		fmt.Fprintf(&b, " %10d %8d %10d  %s\n", cas, casFail, faaLoads, best)
	}
	b.WriteString("note: CAS/CASfail/FAA+loads are the lfalloc cell's atomic-operation counts.\n")
	b.WriteString("note: makespans are virtual cycles; lower is better. See EXPERIMENTS.md for the crossover analysis.\n")
	return b.String(), nil
}
