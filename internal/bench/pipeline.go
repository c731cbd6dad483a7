package bench

import (
	"fmt"
	"strings"

	"amplify/internal/bgw"
	"amplify/internal/pool"
	"amplify/internal/sim"
)

// pipelineVariant is one row of the pipeline extension experiment.
type pipelineVariant struct {
	name           string
	amplify, steal bool
}

func pipelineVariants() []pipelineVariant {
	return []pipelineVariant{
		{"smartheap", false, false},
		{"+amplify (no steal)", true, false},
		{"+amplify +steal", true, true},
	}
}

var pipelineWorkerGrid = []int{1, 2, 4, 7}

// pipeCell is one pipeline-BGw run. The pool configuration is fixed
// (MaxObjects 64) and only read by the amplified variants. Pipeline
// cells add nothing to Report.Metrics.
func (r *Runner) pipeCell(workers int, amplify, steal bool) cell {
	cfg := bgw.PipelineConfig{
		CDRs: r.CDRs, Workers: workers, Strategy: "smartheap",
		Amplify: amplify, Steal: steal,
		Pool: pool.Config{MaxObjects: 64},
	}
	return cell{fmt.Sprintf("pipe/smartheap/amplify%v/steal%v/workers%d", amplify, steal, workers),
		func(tr sim.Tracer) (measured, error) {
			c := cfg
			c.Tracer = tr
			res, err := bgw.RunPipeline(c)
			return measuredOf(res, res.Counters), err
		}}
}

// Pipeline is an extension experiment: BGw restructured as the
// producer/consumer flow the paper describes (one parser thread feeding
// processing threads through a bounded queue). It demonstrates a
// limitation the paper's batch measurements cannot see — structure
// pools assume the freeing thread will also be the next allocating
// thread — and the ptmalloc-style shard-steal remedy.
func (r *Runner) Pipeline() (string, error) {
	var b strings.Builder
	b.WriteString("Pipeline BGw (extension): parser -> queue -> processors\n")
	fmt.Fprintf(&b, "%d CDRs, 8 simulated CPUs; speedup vs 1-worker plain smartheap\n\n", r.CDRs)

	base, err := resultOf[bgw.PipelineResult](r, r.pipeCell(1, false, false))
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "%-22s", "workers")
	for _, w := range pipelineWorkerGrid {
		fmt.Fprintf(&b, "%8d", w)
	}
	b.WriteString("\n")
	for _, v := range pipelineVariants() {
		fmt.Fprintf(&b, "%-22s", v.name)
		var last bgw.PipelineResult
		for _, w := range pipelineWorkerGrid {
			res, err := resultOf[bgw.PipelineResult](r, r.pipeCell(w, v.amplify, v.steal))
			if err != nil {
				return "", err
			}
			last = res
			fmt.Fprintf(&b, "%8.2f", float64(base.Makespan)/float64(res.Makespan))
		}
		if v.amplify {
			total := last.PoolHits + last.PoolMisses
			fmt.Fprintf(&b, "   (record reuse %.0f%%, steals %d)",
				100*float64(last.PoolHits)/float64(total), last.PoolSteals)
		}
		b.WriteString("\n")
	}
	b.WriteString("\nnote: without stealing, the parser's pool shard is always empty — the freeing\n")
	b.WriteString("processors keep the structures — so record reuse is 0% and Amplify degenerates\n")
	b.WriteString("to plain allocation; shard stealing (a ptmalloc-style failover, §3.2) restores it.\n")
	return b.String(), nil
}
