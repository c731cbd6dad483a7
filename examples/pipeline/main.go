// Pipeline: structure pools under a producer/consumer flow.
//
// BGw's real architecture is a dataflow: a parser node receives CDRs
// from the network and hands parsed record structures to processing
// nodes over queues. That flow is adversarial for Amplify's structure
// pools — the thread that deletes a record is never the thread that
// allocates the next one, so the allocating thread's pool shard stays
// empty forever. This example shows the failure and the remedy: shard
// stealing, a ptmalloc-style failover (§3.2 says the pools spread
// threads "using strategies mainly from ptmalloc").
//
// Run with: go run ./examples/pipeline
package main

import (
	"fmt"

	"amplify/internal/bgw"
	"amplify/internal/pool"
)

func main() {
	const cdrs = 4000
	fmt.Printf("BGw as a pipeline: parser -> bounded queue -> 4 processors (%d CDRs)\n\n", cdrs)

	variants := []struct {
		name    string
		amplify bool
		steal   bool
	}{
		{"smartheap only", false, false},
		{"amplify, no stealing", true, false},
		{"amplify + shard stealing", true, true},
	}
	var base int64
	for _, v := range variants {
		res, err := bgw.RunPipeline(bgw.PipelineConfig{
			CDRs:     cdrs,
			Workers:  4,
			Strategy: "smartheap",
			Amplify:  v.amplify,
			Steal:    v.steal,
			Pool:     pool.Config{MaxObjects: 64},
		})
		if err != nil {
			panic(err)
		}
		if base == 0 {
			base = res.Makespan
		}
		fmt.Printf("%-26s speedup %5.2f   heap allocs %6d", v.name,
			float64(base)/float64(res.Makespan), res.Alloc.Allocs)
		if v.amplify {
			total := res.PoolHits + res.PoolMisses
			fmt.Printf("   record reuse %3.0f%%   steals %d",
				100*float64(res.PoolHits)/float64(total), res.PoolSteals)
		}
		fmt.Println()
	}
	fmt.Println("\nWithout stealing the parser's shard is always empty: the processors keep")
	fmt.Println("every freed structure, so the pool never serves a hit. Stealing lets the")
	fmt.Println("parser take structures back from the processors' shards with trylock.")
}
