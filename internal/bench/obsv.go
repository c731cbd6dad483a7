package bench

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"amplify/internal/core"
	"amplify/internal/heapobsv"
	"amplify/internal/obsv"
	"amplify/internal/sim"
	"amplify/internal/workload"
)

// Metrics folds the aggregate counters of every completed memo cell
// into one sorted name → value map: the unified metrics view that goes
// into the Report (schema amplify-bench/2). Values are sums across
// cells, so they are deterministic for a given experiment set but say
// nothing about any single run — the per-cell resolution lives in
// Makespans and Export's artifacts.
func (r *Runner) Metrics() map[string]int64 {
	m := make(map[string]int64)
	r.cells.completed(func(_ string, v measured) {
		for _, c := range v.counters {
			m[c.name] += c.v
		}
	})
	return m
}

// traceTreeConfig is the fixed, small tree run Export observes: big
// enough that heap-lock serialization is unmistakable under the
// global-lock allocator, small enough that the Chrome JSON stays in
// the tens of megabytes.
func (r *Runner) traceTreeConfig() workload.TreeConfig {
	return workload.TreeConfig{Depth: 3, Trees: 400, Threads: 8, Processors: 8,
		InitWork: InitWork, UseWork: UseWork}
}

// traceStrategies are the allocators whose tree runs Export observes:
// the global-lock baseline, the arena allocator, and Amplify.
var traceStrategies = []string{"serial", "ptmalloc", "amplify"}

// Export writes every observation artifact into dir:
//
//	trace-<strategy>.json           Chrome trace_event export of a tree run
//	heap-timeline-<strategy>.jsonl  virtual-time heap timeline of the
//	heap-timeline-<strategy>.csv    same run (one JSON object / CSV row
//	                                per sample)
//	trace-serial.jsonl              the serial run as compact JSONL
//	trace-locks.txt                 per-lock contention profile of the
//	                                serial run
//	profile-folded.txt              folded stacks of simulated cycles of
//	                                the end-to-end MiniCC program
//	heap-sites-folded.txt           allocation-site folded stacks of the
//	                                same run
//	heap-sites.txt                  the same site profile as a table
//	metrics.json                    the unified metrics snapshot
//	heap-summary.json               per-cell footprint/fragmentation
//
// Each strategy's tree runs once observed and once bare: observation
// never charges simulated work, so the two makespans must be equal
// (asserted here, not assumed). The end-to-end program runs once, with
// the cycle and site profilers attached. Every artifact samples virtual
// time, so all of them are byte-identical across hosts and -j values;
// metrics.json and heap-summary.json cover the cells computed so far.
func (r *Runner) Export(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type file struct {
		name string
		art  obsv.Artifact
	}
	write := func(obs *obsv.Set, files ...file) error {
		for _, f := range files {
			if err := obs.Write(filepath.Join(dir, f.name), f.art); err != nil {
				return err
			}
		}
		return nil
	}
	warn := log.New(os.Stderr, "bench: ", 0)
	cfg := r.traceTreeConfig()
	for _, strategy := range traceStrategies {
		bare, err := workload.RunTree(strategy, cfg)
		if err != nil {
			return fmt.Errorf("bench: baseline run %s: %w", strategy, err)
		}
		obs := &obsv.Set{Events: &sim.Recorder{Max: obsv.MaxEvents}, Heap: &heapobsv.Timeline{},
			Procs: cfg.Processors, Warn: warn}
		tcfg := cfg
		tcfg.Tracer = obs.Tracer()
		res, err := workload.RunTree(strategy, tcfg)
		if err != nil {
			return fmt.Errorf("bench: observed run %s: %w", strategy, err)
		}
		if res.Makespan != bare.Makespan {
			return fmt.Errorf("bench: observation changed %s makespan: %d != %d",
				strategy, res.Makespan, bare.Makespan)
		}
		obs.Finish(res.Makespan)
		files := []file{
			{"trace-" + strategy + ".json", obsv.ChromeJSON},
			{"heap-timeline-" + strategy + ".jsonl", obsv.HeapTimeline},
			{"heap-timeline-" + strategy + ".csv", obsv.HeapTimeline},
		}
		if strategy == "serial" {
			files = append(files, file{"trace-serial.jsonl", obsv.EventsJSONL}, file{"trace-locks.txt", obsv.LockTable})
		}
		if err := write(obs, files...); err != nil {
			return err
		}
	}

	obs := &obsv.Set{Profile: obsv.NewProfiler(), Sites: heapobsv.NewSiteProfile()}
	m, err := r.vmCell(profiledProgram).run(obs.Tracer())
	if err != nil {
		return fmt.Errorf("bench: profile run: %w", err)
	}
	obs.Finish(m.Makespan)
	if err := write(obs, file{"profile-folded.txt", obsv.CycleStacks},
		file{"heap-sites-folded.txt", obsv.SiteStacks}, file{"heap-sites.txt", obsv.SiteTable}); err != nil {
		return err
	}

	metrics, err := json.MarshalIndent(r.Metrics(), "", "  ")
	if err != nil {
		return err
	}
	if err := obsv.WriteJSON(filepath.Join(dir, "metrics.json"), metrics); err != nil {
		return err
	}
	summary, err := json.MarshalIndent(r.HeapCells(), "", "  ")
	if err != nil {
		return err
	}
	return obsv.WriteJSON(filepath.Join(dir, "heap-summary.json"), append(summary, '\n'))
}

// profiledProgram is the amplified end-to-end MiniCC program Export
// runs with the cycle and site profilers attached.
var profiledProgram = vmProgram{"export/amplify/threads4", treeSource(4, 30, e2eDepth), &core.Options{}, ""}
