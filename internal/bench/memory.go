package bench

import (
	"fmt"
	"strings"

	"amplify/internal/bgw"
	"amplify/internal/pool"
	"amplify/internal/workload"
)

// memoryStrategies are the rows of the memory table.
var memoryStrategies = []string{"serial", "ptmalloc", "hoard", "amplify", "handmade"}

// Memory reproduces the §5.1 memory-consumption discussion as a table:
// the process footprint of each strategy on each test case (8 threads),
// the paper's observation that neither the synthetic programs nor BGw
// "suffered from the increased memory consumption", and the effect of
// the two §5.1/§5.2 limiters (pool population cap, shadow size cap).
func (r *Runner) Memory() (string, error) {
	var b strings.Builder
	b.WriteString("Memory consumption (§5.1/§5.2)\n")
	b.WriteString("Process footprint in KiB, 8 threads, full synthetic runs:\n\n")
	fmt.Fprintf(&b, "%-11s %10s %10s %10s\n", "strategy", "case 1", "case 2", "case 3")
	for _, s := range memoryStrategies {
		fmt.Fprintf(&b, "%-11s", s)
		for _, depth := range []int{1, 3, 5} {
			res, err := r.run(s, depth, 8)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, " %10.0f", float64(res.Footprint)/1024)
		}
		b.WriteByte('\n')
	}

	// The §5.1 worry: "a lot of unused object structures in the pools".
	// The structure-reuse design keeps exactly one structure per thread
	// live-or-pooled at a time in this workload, so the footprint stays
	// bounded; the limiters below are for workloads that are not so
	// tidy.
	amp, err := r.run("amplify", 3, 8)
	if err != nil {
		return "", err
	}
	plain, err := r.run("serial", 3, 8)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "\namplified vs plain footprint, case 2: %.2fx (paper: no suffering observed)\n",
		float64(amp.Footprint)/float64(plain.Footprint))

	// Limiter effect on a workload that would otherwise retain many
	// structures: a capped pool releases the excess.
	capped, err := resultOf[workload.Result](r, r.cappedTreeCell())
	if err != nil {
		return "", err
	}
	// The cap trades heap calls for retention: structures above the cap
	// go back to the heap (whose free lists absorb them — footprint is
	// unchanged, but the C-library allocator is exercised again).
	fmt.Fprintf(&b, "pool population cap (MaxObjects=1): heap allocations %d vs %d uncapped\n",
		capped.Alloc.Allocs, amp.Alloc.Allocs)

	// Shadow cap on BGw: large arrays are freed instead of parked.
	unlimited, err := r.runBGw("smartheap", true, false, 4)
	if err != nil {
		return "", err
	}
	cappedBGw, err := resultOf[bgw.Result](r, r.shadowCapBGwCell())
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "BGw shadow cap (64B): reuse %.0f%% -> %.0f%%, heap allocations %d -> %d\n",
		100*float64(unlimited.ShadowReuses)/float64(int64(r.CDRs)*6),
		100*float64(cappedBGw.ShadowReuses)/float64(int64(r.CDRs)*6),
		unlimited.Alloc.Allocs, cappedBGw.Alloc.Allocs)

	fmt.Fprintf(&b, "shadow-realloc guarantee: repeated reallocation consumes at most twice the live size (property-tested in internal/pool)\n")
	return b.String(), nil
}

// cappedTreeCell is the MaxObjects=1 pool limiter run.
func (r *Runner) cappedTreeCell() cell {
	return cell{"tree-capped/amplify/depth3/threads8/max1", treeRun("amplify", workload.TreeConfig{
		Depth: 3, Trees: r.Trees, Threads: 8,
		InitWork: InitWork, UseWork: UseWork,
		Pool: pool.Config{MaxObjects: 1},
	})}
}

// shadowCapBGwCell is the MaxShadowBytes=64 shadow limiter run.
func (r *Runner) shadowCapBGwCell() cell {
	return cell{"bgw-shadowcap/smartheap/threads4/cap64", bgwRun(bgw.Config{
		CDRs: r.CDRs, Threads: 4, Strategy: "smartheap", Amplify: true,
		Pool: pool.Config{MaxShadowBytes: 64},
	})}
}
