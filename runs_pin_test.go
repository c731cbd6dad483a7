package amplify

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"amplify/internal/alloc"
	"amplify/internal/alloctrace"
	"amplify/internal/bgw"
	"amplify/internal/heapobsv"
	"amplify/internal/obsv/obsvpin"
	"amplify/internal/sim"
	"amplify/internal/workload"
)

// runFields renders a fixed, named field list of a runner's result.
// Named fields, not %+v of the whole struct, so that moving fields
// between structs (embedding) does not change the pinned bytes.
func runFields(makespan int64, st sim.Stats, a alloc.Stats, h alloc.HeapInfo, footprint int64, own ...any) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "Makespan=%d\nSim=%+v\nAlloc=%+v\nHeap=%+v\nFootprint=%d\n", makespan, st, a, h, footprint)
	for i := 0; i+1 < len(own); i += 2 {
		fmt.Fprintf(&b, "%s=%+v\n", own[i], own[i+1])
	}
	return []byte(b.String())
}

// timelineBytes finishes tl at the run's makespan and renders every
// sample it took, read back from the JSONL export (one object per
// sample, every field by its JSON name).
func timelineBytes(t *testing.T, tl *heapobsv.Timeline, makespan int64) []byte {
	t.Helper()
	tl.Finish(makespan)
	var b strings.Builder
	dec := json.NewDecoder(bytes.NewReader(tl.JSONL()))
	dec.DisallowUnknownFields()
	for dec.More() {
		var s heapobsv.Sample
		if err := dec.Decode(&s); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%+v\n", s)
	}
	return []byte(b.String())
}

// TestRunnerResultsPinned pins the results of every Go workload runner
// (RunTree, RunChurn, RunReplay, bgw.Run, bgw.RunPipeline) over a
// small grid, and the heap timeline of one traced cell per runner, to
// the SHA-256 sums in testdata/runs/SHA256SUMS. A refactor of how the
// runners build and read the simulated machine must keep every sum;
// re-pin only on purpose, with
// go test -run TestRunnerResultsPinned . -args -update-observe.
func TestRunnerResultsPinned(t *testing.T) {
	got := map[string][]byte{}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	tree := func(name, strategy string, cfg workload.TreeConfig) {
		r, err := workload.RunTree(strategy, cfg)
		must(err)
		got["tree/"+name] = runFields(r.Makespan, r.Sim, r.Alloc, r.Heap, r.Footprint,
			"PoolHits", r.PoolHits, "PoolMisses", r.PoolMisses,
			"Strategy", r.Strategy, "FailedTryLocks", r.FailedTryLocks)
	}
	for _, s := range workload.Strategies() {
		for _, threads := range []int{1, 4} {
			tree(s+"/"+strconv.Itoa(threads), s, workload.TreeConfig{Depth: 3, Trees: 120, Threads: threads, InitWork: 8, UseWork: 5})
		}
	}
	tree("amplify/1-locked", "amplify", workload.TreeConfig{Depth: 3, Trees: 120, Threads: 1, KeepPoolLocks: true})
	tree("ptmalloc/4-arenas2", "ptmalloc", workload.TreeConfig{Depth: 3, Trees: 120, Threads: 4, Arenas: 2})
	tree("hoard/4-depth1", "hoard", workload.TreeConfig{Depth: 1, Trees: 60, Threads: 4})
	tree("amplify/4-capped", "amplify", workload.TreeConfig{Depth: 3, Trees: 120, Threads: 4, Processors: 2})

	for _, s := range workload.ChurnStrategies() {
		r, err := workload.RunChurn(s, workload.ChurnConfig{Threads: 4, OpsPerThread: 40, Work: 10})
		must(err)
		got["churn/"+s] = runFields(r.Makespan, r.Sim, r.Alloc, r.Heap, r.Footprint, "Strategy", r.Strategy)
	}

	for _, corpus := range alloctrace.CorpusNames() {
		tr, err := alloctrace.Corpus(corpus)
		must(err)
		for _, s := range workload.ReplayStrategies() {
			r, err := workload.RunReplay(s, workload.ReplayConfig{Trace: tr})
			must(err)
			got["replay/"+corpus+"/"+s] = runFields(r.Makespan, r.Sim, r.Alloc, r.Heap, r.Footprint,
				"Strategy", r.Strategy, "TraceName", r.TraceName, "Stats", r.Stats)
		}
	}

	bgwRun := func(name string, cfg bgw.Config) {
		r, err := bgw.Run(cfg)
		must(err)
		got["bgw/"+name] = runFields(r.Makespan, r.Sim, r.Alloc, r.Heap, r.Footprint,
			"PoolHits", r.PoolHits, "ShadowReuses", r.ShadowReuses,
			"AppAllocs", r.AppAllocs, "LibAllocs", r.LibAllocs)
	}
	for _, threads := range []int{1, 4} {
		n := strconv.Itoa(threads)
		bgwRun("plain/"+n, bgw.Config{CDRs: 120, Threads: threads})
		bgwRun("amplify/"+n, bgw.Config{CDRs: 120, Threads: threads, Amplify: true})
		bgwRun("objects/"+n, bgw.Config{CDRs: 120, Threads: threads, Amplify: true, ObjectsToo: true})
	}
	bgwRun("objects/4-ptmalloc", bgw.Config{CDRs: 120, Threads: 4, Strategy: "ptmalloc", Amplify: true, ObjectsToo: true})

	pipe := func(name string, cfg bgw.PipelineConfig) {
		r, err := bgw.RunPipeline(cfg)
		must(err)
		got["pipeline/"+name] = runFields(r.Makespan, r.Sim, r.Alloc, r.Heap, r.Footprint,
			"PoolHits", r.PoolHits, "PoolMisses", r.PoolMisses, "ShadowReuses", r.ShadowReuses,
			"PoolSteals", r.PoolSteals)
	}
	pipe("plain", bgw.PipelineConfig{CDRs: 120})
	pipe("amplify", bgw.PipelineConfig{CDRs: 120, Amplify: true})
	pipe("amplify-steal", bgw.PipelineConfig{CDRs: 120, Amplify: true, Steal: true})

	// One traced cell per runner: the timeline sees the machine's
	// space, allocator and pool runtime through pool.Watch.
	{
		tl := &heapobsv.Timeline{Interval: 2000}
		r, err := workload.RunTree("amplify", workload.TreeConfig{Depth: 3, Trees: 120, Threads: 4, Tracer: tl})
		must(err)
		got["traced/tree"] = timelineBytes(t, tl, r.Makespan)
	}
	{
		tl := &heapobsv.Timeline{Interval: 2000}
		r, err := workload.RunChurn("ptmalloc", workload.ChurnConfig{Threads: 4, OpsPerThread: 40, Tracer: tl})
		must(err)
		got["traced/churn"] = timelineBytes(t, tl, r.Makespan)
	}
	{
		tr, err := alloctrace.Corpus("handoff")
		must(err)
		tl := &heapobsv.Timeline{Interval: 2000}
		r, err := workload.RunReplay("hoard", workload.ReplayConfig{Trace: tr, Tracer: tl})
		must(err)
		got["traced/replay"] = timelineBytes(t, tl, r.Makespan)
	}
	{
		tl := &heapobsv.Timeline{Interval: 2000}
		r, err := bgw.Run(bgw.Config{CDRs: 120, Threads: 4, Amplify: true, ObjectsToo: true, Tracer: tl})
		must(err)
		got["traced/bgw"] = timelineBytes(t, tl, r.Makespan)
	}
	{
		tl := &heapobsv.Timeline{Interval: 2000}
		r, err := bgw.RunPipeline(bgw.PipelineConfig{CDRs: 120, Amplify: true, Steal: true, Tracer: tl})
		must(err)
		got["traced/pipeline"] = timelineBytes(t, tl, r.Makespan)
	}

	obsvpin.Check(t, "testdata/runs/SHA256SUMS", "", got)
}
