package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"amplify/internal/bgw"
	"amplify/internal/core"
	"amplify/internal/obsv"
	"amplify/internal/sim"
	"amplify/internal/vm"
	"amplify/internal/workload"
)

// Metrics folds the aggregate counters of every completed memo cell
// into one sorted name → value map: the unified metrics view that goes
// into the Report (schema amplify-bench/2). Values are sums across
// cells, so they are deterministic for a given experiment set but say
// nothing about any single run — the per-cell resolution lives in
// Makespans and the trace exports.
func (r *Runner) Metrics() map[string]int64 {
	reg := obsv.NewRegistry()
	addSim := func(st sim.Stats) {
		reg.Add("sim.lock.acquires", st.LockAcquires)
		reg.Add("sim.lock.contended", st.LockContended)
		reg.Add("sim.lock.wait_cycles", st.LockWaitTime)
		reg.Add("sim.cache.hits", st.CacheHits)
		reg.Add("sim.cache.misses", st.CacheMisses)
		reg.Add("sim.cache.invalidations", st.CacheInvalidations)
		reg.Add("sim.cache.rfos", st.CacheRFOs)
		reg.Add("sim.migrations", st.Migrations)
		reg.Add("sim.chan.sends", st.ChanSends)
		reg.Add("sim.chan.recvs", st.ChanRecvs)
		reg.Add("sim.chan.blocked_sends", st.ChanBlockedSends)
		reg.Add("sim.chan.blocked_recvs", st.ChanBlockedRecvs)
		reg.Add("sim.wg.waits", st.WaitGroupWaits)
		reg.Add("sim.wg.dones", st.WaitGroupDones)
		reg.Add("sim.atomic.cas", st.AtomicCAS)
		reg.Add("sim.atomic.cas_failed", st.AtomicCASFailed)
		reg.Add("sim.atomic.faa", st.AtomicFAA)
		reg.Add("sim.atomic.loads", st.AtomicLoads)
		reg.Add("sim.atomic.stores", st.AtomicStores)
	}
	r.cells.completed(func(key string, val any) {
		switch v := val.(type) {
		case workload.Result:
			reg.Add("cells.tree", 1)
			addSim(v.Sim)
			reg.Add("alloc.allocs", v.Alloc.Allocs)
			reg.Add("alloc.frees", v.Alloc.Frees)
			reg.Add("pool.hits", v.PoolHits)
			reg.Add("pool.misses", v.PoolMisses)
			reg.Add("pool.failed_trylocks", v.FailedTryLocks)
		case workload.ChurnResult:
			reg.Add("cells.contend", 1)
			addSim(v.Sim)
			reg.Add("alloc.allocs", v.Alloc.Allocs)
			reg.Add("alloc.frees", v.Alloc.Frees)
		case workload.ReplayResult:
			reg.Add("cells.replay", 1)
			addSim(v.Sim)
			reg.Add("alloc.allocs", v.Alloc.Allocs)
			reg.Add("alloc.frees", v.Alloc.Frees)
		case bgw.Result:
			reg.Add("cells.bgw", 1)
			addSim(v.Sim)
			reg.Add("alloc.allocs", v.Alloc.Allocs)
			reg.Add("alloc.frees", v.Alloc.Frees)
			reg.Add("pool.hits", v.PoolHits)
			reg.Add("shadow.reuses", v.ShadowReuses)
		case e2eResult:
			reg.Add("cells.e2e", 1)
			reg.Add("alloc.allocs", v.Allocs)
		}
	})
	return reg.Snapshot()
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

// foldedProfile runs the amplified end-to-end MiniCC program under the
// cycle profiler and returns its folded stacks.
func (r *Runner) foldedProfile() (string, error) {
	src := treeSource(4, 30, e2eDepth)
	amped, _, err := core.Rewrite(src, core.Options{})
	if err != nil {
		return "", err
	}
	prof := obsv.NewProfiler()
	res, err := vm.RunSource(amped, vm.Config{Tracer: prof})
	if err != nil {
		return "", fmt.Errorf("bench: profile run: %w", err)
	}
	prof.Finish(res.Makespan)
	return prof.Folded(), nil
}
