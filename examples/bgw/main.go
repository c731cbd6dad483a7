// BGw: the commercial-application experiment of §5.2 / Figure 11.
//
// The Billing Gateway substitute processes call data records on the
// simulated 8-CPU machine. Half of its allocations come from opaque
// tool libraries that the pre-processor cannot rewrite; the rewritable
// half is dominated by data-type arrays handled with shadowed realloc.
// The example reproduces the section's findings: the serial allocator
// collapses, SmartHeap scales, Amplify alone does not rescue the
// application, and SmartHeap+Amplify processes CDRs ~17% faster.
//
// Run with: go run ./examples/bgw
package main

import (
	"fmt"

	"amplify/internal/bgw"
)

func main() {
	const cdrs = 5000
	fmt.Printf("BGw substitute: processing %d CDRs on 8 simulated CPUs\n\n", cdrs)

	base, err := bgw.Run(bgw.Config{CDRs: cdrs, Threads: 1, Strategy: "serial"})
	if err != nil {
		panic(err)
	}
	fmt.Printf("allocation profile: %d application + %d library allocations per run\n",
		base.AppAllocs, base.LibAllocs)
	fmt.Printf("(the library half is code Amplify cannot see — §5.2's key obstacle)\n\n")

	type variant struct {
		name string
		cfg  bgw.Config
	}
	variants := []variant{
		{"serial malloc", bgw.Config{Strategy: "serial"}},
		{"Amplify alone", bgw.Config{Strategy: "serial", Amplify: true, ObjectsToo: true}},
		{"SmartHeap", bgw.Config{Strategy: "smartheap"}},
		{"SmartHeap+Amplify", bgw.Config{Strategy: "smartheap", Amplify: true}},
	}
	fmt.Printf("%-20s %8s %8s %8s %8s\n", "configuration", "1T", "2T", "4T", "8T")
	results := map[string][]float64{}
	for _, v := range variants {
		fmt.Printf("%-20s", v.name)
		for _, th := range []int{1, 2, 4, 8} {
			cfg := v.cfg
			cfg.CDRs = cdrs
			cfg.Threads = th
			r, err := bgw.Run(cfg)
			if err != nil {
				panic(err)
			}
			sp := float64(base.Makespan) / float64(r.Makespan)
			results[v.name] = append(results[v.name], sp)
			fmt.Printf(" %8.2f", sp)
		}
		fmt.Println()
	}

	sh := results["SmartHeap"]
	amp := results["SmartHeap+Amplify"]
	fmt.Printf("\nAmplify gain over SmartHeap alone:")
	for i, th := range []int{1, 2, 4, 8} {
		fmt.Printf("  %dT %+.0f%%", th, (amp[i]/sh[i]-1)*100)
	}
	fmt.Printf("\n(the paper reports 17%%)\n")
}
