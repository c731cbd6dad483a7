package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"amplify/internal/core"
	"amplify/internal/heapobsv"
	"amplify/internal/vm"
	"amplify/internal/workload"
)

// ExportHeap writes the heap-introspection artifacts into dir:
//
//	heap-timeline-<strategy>.jsonl   virtual-time heap timeline (one
//	heap-timeline-<strategy>.csv     JSON object / CSV row per sample)
//	heap-sites-folded.txt            allocation-site folded stacks of
//	                                 the end-to-end MiniCC program
//	heap-sites.txt                   the same profile as a table
//	heap-summary.json                per-cell footprint/fragmentation
//
// Timelines sample in virtual time, so every artifact is deterministic:
// byte-identical across hosts and -j values. Observation never charges
// simulated work — the observed runs' makespans equal the unobserved
// ones (asserted here, not assumed).
func (r *Runner) ExportHeap(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// The same strategy trio as ExportTraces, on the same runs: the
	// timelines and the Chrome traces describe identical executions.
	cfg := r.traceTreeConfig()
	for _, strategy := range traceStrategies {
		bare, err := workload.RunTree(strategy, cfg)
		if err != nil {
			return fmt.Errorf("bench: heap baseline run %s: %w", strategy, err)
		}
		tl := &heapobsv.Timeline{}
		tcfg := cfg
		tcfg.Tracer = tl
		res, err := workload.RunTree(strategy, tcfg)
		if err != nil {
			return fmt.Errorf("bench: heap timeline run %s: %w", strategy, err)
		}
		if res.Makespan != bare.Makespan {
			return fmt.Errorf("bench: heap observation changed %s makespan: %d != %d",
				strategy, res.Makespan, bare.Makespan)
		}
		tl.Finish(res.Makespan)
		for ext, out := range map[string][]byte{"jsonl": tl.JSONL(), "csv": tl.CSV()} {
			name := fmt.Sprintf("heap-timeline-%s.%s", strategy, ext)
			if err := os.WriteFile(filepath.Join(dir, name), out, 0o644); err != nil {
				return err
			}
		}
	}

	folded, table, err := r.siteProfile()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "heap-sites-folded.txt"), []byte(folded), 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "heap-sites.txt"), []byte(table), 0o644); err != nil {
		return err
	}

	summary, err := json.MarshalIndent(r.HeapCells(), "", "  ")
	if err != nil {
		return err
	}
	if !json.Valid(summary) {
		return fmt.Errorf("bench: heap summary export: invalid JSON")
	}
	return os.WriteFile(filepath.Join(dir, "heap-summary.json"), append(summary, '\n'), 0o644)
}

// siteProfile runs the amplified end-to-end MiniCC program under the
// allocation-site profiler and returns its folded stacks and table.
func (r *Runner) siteProfile() (folded, table string, err error) {
	src := treeSource(4, 30, e2eDepth)
	amped, _, err := core.Rewrite(src, core.Options{})
	if err != nil {
		return "", "", err
	}
	prof := heapobsv.NewSiteProfile()
	if _, err := vm.RunSource(amped, vm.Config{Tracer: prof}); err != nil {
		return "", "", fmt.Errorf("bench: site profile run: %w", err)
	}
	return prof.Folded(heapobsv.MetricAllocBytes), prof.Table(), nil
}
