package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"amplify/internal/core"
	"amplify/internal/obsv"
	"amplify/internal/sim"
	"amplify/internal/workload"
)

// Metrics folds the aggregate counters of every completed memo cell
// into one sorted name → value map: the unified metrics view that goes
// into the Report (schema amplify-bench/2). Values are sums across
// cells, so they are deterministic for a given experiment set but say
// nothing about any single run — the per-cell resolution lives in
// Makespans and the trace exports.
func (r *Runner) Metrics() map[string]int64 {
	m := make(map[string]int64)
	r.cells.completed(func(_ string, v measured) {
		for _, c := range v.counters {
			m[c.name] += c.v
		}
	})
	return m
}

// traceTreeConfig is the fixed, small tree run the exports trace: big
// enough that heap-lock serialization is unmistakable under the
// global-lock allocator, small enough that the Chrome JSON stays in
// the tens of megabytes.
func (r *Runner) traceTreeConfig() workload.TreeConfig {
	return workload.TreeConfig{Depth: 3, Trees: 400, Threads: 8, Processors: 8,
		InitWork: InitWork, UseWork: UseWork}
}

// traceStrategies are the allocators whose tree runs ExportTraces
// records: the global-lock baseline, the arena allocator, and Amplify.
var traceStrategies = []string{"serial", "ptmalloc", "amplify"}

// ExportTraces writes the observability artifacts into dir:
//
//	trace-<strategy>.json   Chrome trace_event export of a tree run
//	trace-serial.jsonl      the same serial run as compact JSONL
//	trace-locks.txt         per-lock contention profile of the serial run
//	profile-folded.txt      folded stacks of the end-to-end MiniCC program
//	metrics.json            the unified metrics registry snapshot
//
// Every JSON artifact is validated with json.Valid before it is
// written; an invalid export is an error, never a file.
func (r *Runner) ExportTraces(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cfg := r.traceTreeConfig()
	var serialEvents []sim.Event
	for _, strategy := range traceStrategies {
		rec := &sim.Recorder{Max: 4_000_000}
		tcfg := cfg
		tcfg.Tracer = rec
		if _, err := workload.RunTree(strategy, tcfg); err != nil {
			return fmt.Errorf("bench: trace run %s: %w", strategy, err)
		}
		events := rec.Snapshot()
		out, err := obsv.ChromeTrace(events, tcfg.Processors)
		if err != nil {
			return fmt.Errorf("bench: chrome export %s: %w", strategy, err)
		}
		if !json.Valid(out) {
			return fmt.Errorf("bench: chrome export %s: invalid JSON", strategy)
		}
		if err := os.WriteFile(filepath.Join(dir, "trace-"+strategy+".json"), out, 0o644); err != nil {
			return err
		}
		if strategy == "serial" {
			serialEvents = events
		}
	}

	jl, err := obsv.JSONL(serialEvents)
	if err != nil {
		return fmt.Errorf("bench: jsonl export: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "trace-serial.jsonl"), jl, 0o644); err != nil {
		return err
	}
	locks := obsv.FormatLockProfile(obsv.LockProfile(serialEvents))
	if err := os.WriteFile(filepath.Join(dir, "trace-locks.txt"), []byte(locks), 0o644); err != nil {
		return err
	}

	folded, err := r.foldedProfile()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "profile-folded.txt"), []byte(folded), 0o644); err != nil {
		return err
	}

	metrics, err := json.MarshalIndent(r.Metrics(), "", "  ")
	if err != nil {
		return err
	}
	if !json.Valid(metrics) {
		return fmt.Errorf("bench: metrics export: invalid JSON")
	}
	return os.WriteFile(filepath.Join(dir, "metrics.json"), metrics, 0o644)
}

// profiledCell is the amplified end-to-end MiniCC program the profile
// exports run with a profiler attached.
func (r *Runner) profiledCell() cell {
	return r.vmCell("export/amplify/threads4", treeSource(4, 30, e2eDepth), &core.Options{}, "")
}

// foldedProfile runs profiledCell under the cycle profiler and returns
// its folded stacks.
func (r *Runner) foldedProfile() (string, error) {
	prof := obsv.NewProfiler()
	m, err := r.profiledCell().run(prof)
	if err != nil {
		return "", fmt.Errorf("bench: profile run: %w", err)
	}
	prof.Finish(m.Makespan)
	return prof.Folded(), nil
}
