package bench

import (
	"fmt"
	"strings"

	"amplify/internal/workload"
)

var (
	sensitivityProcs      = []int{2, 4, 8, 16}
	sensitivityStrategies = []string{"serial", "ptmalloc", "hoard", "amplify"}
)

// Sensitivity is an extension experiment: the paper's machines had 8
// processors; this sweep re-runs test case 2 with the thread count
// pinned to the processor count P while P varies, showing how each
// strategy's advantage develops with machine width. The serialization
// bottleneck grows with P (the serial baseline collapses), the parallel
// allocators track P, and Amplify's advantage widens because its
// critical sections are the shortest.
func (r *Runner) Sensitivity() (string, error) {
	var b strings.Builder
	b.WriteString("Processor-count sensitivity (extension): test case 2, threads = processors\n")
	b.WriteString("(speedup vs 1 thread on the standard heap of the same machine)\n\n")
	fmt.Fprintf(&b, "%-11s", "processors")
	for _, p := range sensitivityProcs {
		fmt.Fprintf(&b, "%8d", p)
	}
	b.WriteString("\n")

	values := map[string][]float64{}
	for _, p := range sensitivityProcs {
		base, err := resultOf[workload.Result](r, r.treeCell("serial", 3, 1, p))
		if err != nil {
			return "", err
		}
		for _, s := range sensitivityStrategies {
			res, err := resultOf[workload.Result](r, r.treeCell(s, 3, p, p))
			if err != nil {
				return "", err
			}
			values[s] = append(values[s], float64(base.Makespan)/float64(res.Makespan))
		}
	}
	for _, s := range sensitivityStrategies {
		fmt.Fprintf(&b, "%-11s", s)
		for _, v := range values[s] {
			fmt.Fprintf(&b, "%8.2f", v)
		}
		b.WriteString("\n")
	}
	// The headline trend: Amplify's margin over the best C-library
	// allocator per machine width.
	b.WriteString("\namplify advantage over the better of ptmalloc/hoard:")
	for i, p := range sensitivityProcs {
		best := values["ptmalloc"][i]
		if values["hoard"][i] > best {
			best = values["hoard"][i]
		}
		fmt.Fprintf(&b, "  %dP %.1fx", p, values["amplify"][i]/best)
	}
	b.WriteString("\n")
	return b.String(), nil
}
