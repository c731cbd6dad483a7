package bench

import (
	"fmt"
	"strings"

	"amplify/internal/alloctrace"
	"amplify/internal/sim"
	"amplify/internal/workload"
)

// The replay experiment drives the committed real-world-shaped trace
// corpora (internal/alloctrace, synthesized from the "Heap vs. Stack"
// study's allocation distributions) through the full allocator grid.
// Unlike the synthetic tree and churn generators — whose shape the
// repo's allocators were tuned against — each corpus pins a different
// production shape: session churn, small-object dominance, a
// fragmentation adversary, producer-consumer handoffs. The headline is
// that the who-wins ordering changes per shape; EXPERIMENTS.md carries
// the analysis. Corpora are synthesized in-memory (they are pure
// functions of their parameters), so the experiment is hermetic; the
// committed testdata/traces/ artifacts are the same bytes, pinned by
// test and CI checksum.

// replayCell is one corpus × allocator replay run.
func replayCell(corpus, strategy string) cell {
	return cell{fmt.Sprintf("replay/%s/%s", corpus, strategy), func(tr sim.Tracer) (measured, error) {
		trace, err := alloctrace.Corpus(corpus)
		if err != nil {
			return measured{}, err
		}
		res, err := workload.RunReplay(strategy, workload.ReplayConfig{Trace: trace, Tracer: tr})
		m := measuredOf(res, res.Makespan, res.Footprint, res.Alloc, res.Heap, res.Sim)
		m.counters = simCounters("cells.replay", res.Sim, res.Alloc)
		return m, err
	}}
}

// Replay renders the trace-replay grid: one row per corpus with the
// makespan of every allocator, the corpus's shape summary, and a
// per-row winner. All numbers are simulated and deterministic.
func (r *Runner) Replay() (string, error) {
	allocs := workload.ReplayStrategies()
	var b strings.Builder
	b.WriteString("Trace replay grid: recorded allocation streams driven through the allocator grid\n")
	fmt.Fprintf(&b, "%-12s %8s %8s", "corpus", "events", "xfree%")
	for _, s := range allocs {
		fmt.Fprintf(&b, " %10s", s)
	}
	fmt.Fprintf(&b, "  %s\n", "winner")
	for _, corpus := range alloctrace.CorpusNames() {
		tr, err := alloctrace.Corpus(corpus)
		if err != nil {
			return "", err
		}
		st := tr.Stats()
		xfree := 0.0
		if st.Frees > 0 {
			xfree = 100 * float64(st.CrossThreadFrees) / float64(st.Frees)
		}
		fmt.Fprintf(&b, "%-12s %8d %7.1f%%", corpus, st.Events, xfree)
		best, bestMS := "", int64(0)
		for _, s := range allocs {
			res, err := r.cells.do(replayCell(corpus, s))
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, " %10d", res.Makespan)
			if best == "" || res.Makespan < bestMS {
				best, bestMS = s, res.Makespan
			}
		}
		fmt.Fprintf(&b, "  %s\n", best)
	}
	for _, corpus := range alloctrace.CorpusNames() {
		tr, err := alloctrace.Corpus(corpus)
		if err != nil {
			return "", err
		}
		a := alloctrace.Analyze(tr)
		fmt.Fprintf(&b, "note: %-12s lifetimes p50=%d p99=%d, peak live %d objs / %d bytes, %d leaked\n",
			corpus, a.LifetimeP50, a.LifetimeP99,
			a.Stats.PeakLiveObjects, a.Stats.PeakLiveBytes, a.Stats.Leaked)
	}
	b.WriteString("note: makespans are virtual cycles; lower is better. xfree% is the cross-thread share of frees.\n")
	b.WriteString("note: corpora are synthesized in-memory; testdata/traces/ commits the same bytes (CI pins the checksums).\n")
	return b.String(), nil
}
