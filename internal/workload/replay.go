package workload

import (
	"fmt"

	"amplify/internal/alloctrace"
	"amplify/internal/mem"
	"amplify/internal/sim"
	"amplify/internal/target"
)

// The replay workload drives a recorded allocation trace back through
// any allocator in the grid: the real-world-shaped counterpart to the
// synthetic tree and churn generators. Replay preserves what the trace
// pinned down — each thread issues its captured operations in capture
// order, every block lives from its alloc to its free, cross-thread
// handoffs stay cross-thread — while the allocator under test makes its
// own placement, size-class and locking decisions. The makespan is the
// allocator's cost on that workload shape, which is exactly the
// comparison the source paper's method needs before swapping policies.

// ReplayConfig parameterizes a trace replay run.
type ReplayConfig struct {
	// Trace is the recorded stream to drive. Replay spawns one simulated
	// thread per trace thread.
	Trace *alloctrace.Trace
	// Processors simulated; zero means 8.
	Processors int
	// Tracer receives the run's event stream; a pool.Watcher tracer is
	// attached to the run's space, allocator and pool runtime first.
	// Host-side only.
	Tracer sim.Tracer
}

// ReplayResult summarizes a replay run: the machine's counters plus
// the corpus driven.
type ReplayResult struct {
	target.Counters
	Strategy string
	// TraceName and per-trace counters identify the corpus driven.
	TraceName string
	Stats     alloctrace.Stats
}

// ReplayStrategies lists the allocators the replay experiment compares:
// the full grid, since a trace's shape can reorder any of them.
func ReplayStrategies() []string {
	return []string{"serial", "ptmalloc", "hoard", "smartheap", "lkmalloc", "lfalloc"}
}

// RunReplay drives cfg.Trace through the named allocator.
//
// Ordering semantics: per-thread capture order is program order, so
// same-thread lifetimes need no synchronization. Every allocation whose
// free happens on a different thread gets a zero-cost sim.WaitGroup
// gate — Done after the alloc, Wait before the free — which both
// publishes the replayed block reference and forces the alloc-before-
// free edge. The gates cannot deadlock: every edge points backward in
// capture order, and capture order is a valid global schedule, so the
// dependency graph is acyclic. Replay is a deterministic simulation —
// the same trace and allocator always produce the same makespan, and a
// re-captured replay re-captures byte-identically.
func RunReplay(strategy string, cfg ReplayConfig) (ReplayResult, error) {
	res := ReplayResult{Strategy: strategy}
	if cfg.Trace == nil {
		return res, fmt.Errorf("workload: replay needs a trace")
	}
	if err := cfg.Trace.Validate(); err != nil {
		return res, err
	}
	tr := cfg.Trace
	res.TraceName = tr.Name
	res.Stats = tr.Stats()

	// Partition the stream per thread and mark cross-thread lifetimes.
	// gateOf maps an alloc event to 1 + its gate's index in gates, or 0
	// when the block is freed on its own thread (or never).
	perThread := make([][]int32, len(tr.Threads))
	gateOf := make([]int32, len(tr.Events))
	for i := range tr.Events {
		ev := &tr.Events[i]
		perThread[ev.Thread] = append(perThread[ev.Thread], int32(i))
		if ev.Op == alloctrace.OpFree && tr.Events[ev.AllocSeq].Thread != ev.Thread {
			gateOf[ev.AllocSeq] = 1
		}
	}

	m, err := target.Boot(target.Config{Processors: cfg.Processors, Strategy: strategy, Tracer: cfg.Tracer}, target.Options{})
	if err != nil {
		return res, err
	}
	e, a := m.Engine, m.Alloc

	var gates []*sim.WaitGroup // in alloc event order
	for i, marked := range gateOf {
		if marked != 0 {
			g := e.NewWaitGroup()
			g.Add(1)
			gates = append(gates, g)
			gateOf[i] = int32(len(gates))
		}
	}
	refs := make([]mem.Ref, len(tr.Events)) // alloc event index -> replayed block

	// The same two-sided start gate as churn: without it the staggered
	// spawns would serialize short per-thread streams end to end.
	ready := e.NewWaitGroup()
	gate := e.NewWaitGroup()
	ready.Add(len(tr.Threads))
	gate.Add(1)
	e.Go("main", func(c *sim.Ctx) {
		for ti := range perThread {
			ops := perThread[ti]
			c.Go("replay-"+tr.Threads[ti], func(cc *sim.Ctx) {
				ready.Done(cc)
				gate.Wait(cc)
				for _, idx := range ops {
					ev := &tr.Events[idx]
					if ev.Op == alloctrace.OpAlloc {
						r := a.Alloc(cc, ev.Req)
						refs[idx] = r
						cc.Write(uint64(r), 8)
						if g := gateOf[idx]; g != 0 {
							gates[g-1].Done(cc)
						}
					} else {
						if g := gateOf[ev.AllocSeq]; g != 0 {
							gates[g-1].Wait(cc)
						}
						a.Free(cc, refs[ev.AllocSeq])
					}
				}
			})
		}
		ready.Wait(c)
		gate.Done(c)
	})
	res.Counters = m.Run()
	return res, nil
}
