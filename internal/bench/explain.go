package bench

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"amplify/internal/heapobsv"
	"amplify/internal/obsv"
	"amplify/internal/sim"
	"amplify/internal/telemetry"
)

// ExplainSchema identifies the attribution-report layout emitted by
// Explain (amplifybench -explain).
const ExplainSchema = "amplify-explain/1"

// Explain is the attribution engine on top of Compare: it diffs two
// bench reports like Compare does, then re-runs the regressed cells
// with profiling enabled (lock-contention trace, cycle profiler, heap
// site profiler) and emits a deterministic ranked report attributing
// each makespan/footprint/fragmentation delta to specific locks,
// fn@line sites, or allocator-op classes.
//
// The attribution is of the *current* tree: the old report is numbers
// only (its code is gone), so each regressed metric is decomposed into
// the contributors that dominate it now — the lock whose wait cycles
// are most of the makespan, the allocation site holding most of the
// footprint — corroborated by the report-level metric deltas, which
// ARE genuinely differential (old vs new counter maps).
//
// Everything ranked is ranked on deterministic simulated numbers and
// tie-broken lexically, and probes are assembled by cell key rather
// than completion order, so the report bytes are identical at any
// Jobs value.
type Explanation struct {
	Schema     string            `json:"schema"`
	Threshold  float64           `json:"threshold_pct"`
	MinShareBP int64             `json:"min_share_bp"`
	Cells      []CellExplanation `json:"cells"`
	// Metrics are the report-level counter deltas (old vs new Metrics
	// maps), ranked by magnitude — the differential corroboration for
	// the per-cell attributions.
	Metrics []telemetry.Delta `json:"metrics,omitempty"`
	Notes   []string          `json:"notes,omitempty"`
}

// CellExplanation is one regressed metric of one cell with its ranked
// attributions.
type CellExplanation struct {
	Cell   string `json:"cell"`
	Metric string `json:"metric"`
	Old    int64  `json:"old"`
	New    int64  `json:"new"`
	// SeverityBP is the regression size in basis points: relative for
	// makespan/footprint/peak_bytes, absolute for the frag metrics.
	SeverityBP   int64         `json:"severity_bp"`
	Attributions []Attribution `json:"attributions,omitempty"`
	Note         string        `json:"note,omitempty"`
}

// Attribution is one ranked contributor to a regressed metric.
type Attribution struct {
	// Kind classifies the contributor: "lock" (a named simulated
	// mutex), "atomic" / "cache" (allocator-op cost classes), "site"
	// (a fn@line allocation or cycle site), "heap" (heap geometry).
	Kind string `json:"kind"`
	Name string `json:"name"`
	// Value is what the contributor accounts for, in the metric's unit
	// (cycles for makespan, bytes for footprint).
	Value int64 `json:"value"`
	// ShareBP is Value's share of the regressed metric in basis
	// points; 0 for context rows (frag geometry) where a share is not
	// meaningful.
	ShareBP int64  `json:"share_bp"`
	Detail  string `json:"detail,omitempty"`
}

// ExplainOptions tunes Explain. The zero value picks the defaults.
type ExplainOptions struct {
	// ThresholdPct is the allowed degradation before a metric counts
	// as regressed — same semantics as Compare (relative percent, or
	// percentage points for the frag metrics).
	ThresholdPct float64
	// MinShareBP drops attributions (and report-level metric deltas)
	// below this share in basis points. Default 50 (0.5%).
	MinShareBP int64
	// MaxCells caps how many distinct cells are re-run with profiling
	// (the worst regressions win). Default 8.
	MaxCells int
	// TopN caps the attributions kept per regressed metric. Default 10.
	TopN int
	// Jobs bounds the host parallelism of the profiled re-runs; like
	// Runner.Jobs it never changes the report bytes.
	Jobs int
}

func (o ExplainOptions) withDefaults() ExplainOptions {
	if o.MinShareBP == 0 {
		o.MinShareBP = 50
	}
	if o.MaxCells == 0 {
		o.MaxCells = 8
	}
	if o.TopN == 0 {
		o.TopN = 10
	}
	return o
}

// regression is one threshold-exceeding degradation found by the diff.
type regression struct {
	cell, metric string
	old, new     int64
	severityBP   int64
}

// Explain diffs current against baseline and attributes every
// regression. See the Explanation doc for the contract.
func Explain(baseline, current *Report, opts ExplainOptions) (*Explanation, error) {
	for _, r := range []*Report{baseline, current} {
		if !strings.HasPrefix(r.Schema, "amplify-bench/") {
			return nil, fmt.Errorf("bench: unknown report schema %q", r.Schema)
		}
	}
	opts = opts.withDefaults()
	if opts.ThresholdPct < 0 {
		return nil, fmt.Errorf("bench: negative threshold %g", opts.ThresholdPct)
	}
	ex := &Explanation{Schema: ExplainSchema, Threshold: opts.ThresholdPct, MinShareBP: opts.MinShareBP}

	regs, onlyOld, onlyNew := findRegressions(baseline, current, opts.ThresholdPct)
	if onlyOld+onlyNew > 0 {
		ex.Notes = append(ex.Notes, fmt.Sprintf("coverage: %d baseline-only cells, %d new cells not compared", onlyOld, onlyNew))
	}

	// The worst MaxCells distinct cells get a profiled re-run; the
	// rest keep their numbers but are noted, never silently dropped.
	probeCells, dropped := selectCells(regs, opts.MaxCells)
	if dropped > 0 {
		ex.Notes = append(ex.Notes, fmt.Sprintf("%d regressed cells beyond the %d worst were not re-run (raise MaxCells)", dropped, opts.MaxCells))
	}
	probes, err := runProbes(probeCells, current, opts.Jobs)
	if err != nil {
		return nil, err
	}

	for _, reg := range regs {
		ce := CellExplanation{Cell: reg.cell, Metric: reg.metric, Old: reg.old, New: reg.new, SeverityBP: reg.severityBP}
		if p, ok := probes[reg.cell]; ok {
			if p.note != "" {
				ce.Note = p.note
			} else {
				if p.Makespan != current.Makespans[reg.cell] {
					ce.Note = fmt.Sprintf("probe makespan %d differs from report %d: the tree changed since the report was written; attributions describe the current tree", p.Makespan, current.Makespans[reg.cell])
				}
				ce.Attributions = attribute(reg, p, opts)
			}
		} else {
			ce.Note = "not re-run (beyond MaxCells); see report-level metric deltas"
		}
		ex.Cells = append(ex.Cells, ce)
	}

	// Report-level counter deltas corroborate (or contradict) the
	// per-cell story — but only when the reports measured the same
	// grid, or the "delta" would just be the mode difference.
	if baseline.Quick == current.Quick && baseline.VMNoOpt == current.VMNoOpt {
		ex.Metrics = telemetry.DiffCounts(baseline.Metrics, current.Metrics, opts.MinShareBP)
	} else {
		ex.Notes = append(ex.Notes, "report-level metrics not diffed: the reports ran different modes (quick/vm_no_opt)")
	}
	return ex, nil
}

// findRegressions applies Compare's classification rules and returns
// the threshold-exceeding degradations ranked worst-first (severity
// desc, then cell asc, then metric asc — fully deterministic).
func findRegressions(baseline, current *Report, thresholdPct float64) (regs []regression, onlyOld, onlyNew int) {
	_, onlyOld, onlyNew = eachPair(reportMetrics(baseline), reportMetrics(current), func(cell string, o, n metric) {
		if n.v <= o.v || !exceeds(o.v, n.v, o.absoluteBP, thresholdPct) {
			return
		}
		var sevBP int64
		switch {
		case o.absoluteBP:
			sevBP = n.v - o.v
		case o.v == 0:
			sevBP = 10000
		default:
			sevBP = (n.v - o.v) * 10000 / o.v
		}
		regs = append(regs, regression{cell, o.name, o.v, n.v, sevBP})
	})
	sort.Slice(regs, func(i, j int) bool {
		if regs[i].severityBP != regs[j].severityBP {
			return regs[i].severityBP > regs[j].severityBP
		}
		if regs[i].cell != regs[j].cell {
			return regs[i].cell < regs[j].cell
		}
		return regs[i].metric < regs[j].metric
	})
	return regs, onlyOld, onlyNew
}

// selectCells picks the distinct cells of the worst regressions, up to
// max, preserving worst-first order.
func selectCells(regs []regression, max int) (cells []string, dropped int) {
	seen := make(map[string]bool)
	for _, reg := range regs {
		if seen[reg.cell] {
			continue
		}
		if len(cells) >= max {
			dropped++
			continue
		}
		seen[reg.cell] = true
		cells = append(cells, reg.cell)
	}
	return cells, dropped
}

// cellProbe is one profiled re-run of a regressed cell.
type cellProbe struct {
	measured
	locks []obsv.LockStats
	// cycles and sites attribute to fn@line sites; only cells that
	// execute MiniCC programs on the VM (e2e/, escape/) fill them.
	cycles string
	sites  *heapobsv.SiteProfile
	// note is set instead of data for a key no experiment enumerates.
	note string
}

// lockEvents keeps the probe recorders small: only the events
// LockProfile consumes.
var lockEvents = sim.MaskOf(sim.EvLockAcquire, sim.EvLockContended, sim.EvLockHandoff)

// runProbes re-runs the given cells with profiling, up to jobs at a
// time on the host. Each key is looked up among the cells the
// experiment table enumerates for the current report's mode, and that
// cell's own run is re-executed with the lock tracer, the cycle
// profiler and the heap site profiler attached. Observation never
// changes simulated results, so the probe's makespan must match the
// report's — a mismatch means the tree moved, and Explain surfaces it
// as a note rather than an error. Results are keyed by cell, so
// assembly order — and therefore the report bytes — is independent of
// jobs.
func runProbes(keys []string, current *Report, jobs int) (map[string]*cellProbe, error) {
	pr := NewRunner(current.Quick)
	pr.VMNoOpt = current.VMNoOpt
	pr.Jobs = jobs
	enumerated := make(map[string]cell)
	for _, e := range experiments {
		for _, c := range e.cells(pr) {
			enumerated[c.key] = c
		}
	}
	probes := make(map[string]*cellProbe, len(keys))
	var mu sync.Mutex
	tasks := make([]func() error, 0, len(keys))
	for _, key := range keys {
		c, ok := enumerated[key]
		if !ok {
			probes[key] = &cellProbe{note: "no profiled re-run: no experiment enumerates this cell in this mode; see report-level metric deltas"}
			continue
		}
		tasks = append(tasks, func() error {
			rec := &sim.Recorder{Max: 4_000_000, Mask: lockEvents}
			prof := obsv.NewProfiler()
			sites := heapobsv.NewSiteProfile()
			m, err := c.run(sim.NewTee(rec, prof, sites))
			if err != nil {
				return fmt.Errorf("bench: probing %s: %w", key, err)
			}
			prof.Finish(m.Makespan)
			p := &cellProbe{measured: m, locks: obsv.LockProfile(rec.Snapshot()), cycles: prof.Folded(), sites: sites}
			mu.Lock()
			probes[key] = p
			mu.Unlock()
			return nil
		})
	}
	if err := pr.parallelDo(tasks); err != nil {
		return nil, err
	}
	return probes, nil
}

// attribute decomposes one regressed metric into ranked contributors
// from the cell's probe.
func attribute(reg regression, p *cellProbe, opts ExplainOptions) []Attribution {
	var out []Attribution
	share := func(v, total int64) int64 {
		if total <= 0 {
			return 0
		}
		return v * 10000 / total
	}
	cost := sim.DefaultCost()
	switch reg.metric {
	case "makespan":
		total := p.Makespan
		for _, l := range p.locks {
			out = append(out, Attribution{Kind: "lock", Name: l.Name,
				Value: l.WaitCycles, ShareBP: share(l.WaitCycles, total),
				Detail: fmt.Sprintf("%d contended of %d acquires, max %d waiters", l.Contended, l.Acquires, l.MaxWaiters)})
		}
		atomics := p.Sim.AtomicCAS + p.Sim.AtomicFAA + p.Sim.AtomicLoads + p.Sim.AtomicStores
		if atomics > 0 {
			v := atomics * cost.Atomic
			out = append(out, Attribution{Kind: "atomic", Name: "atomic-ops",
				Value: v, ShareBP: share(v, total),
				Detail: fmt.Sprintf("%d CAS (%d failed), %d FAA, %d loads, %d stores", p.Sim.AtomicCAS, p.Sim.AtomicCASFailed, p.Sim.AtomicFAA, p.Sim.AtomicLoads, p.Sim.AtomicStores)})
		}
		if v := p.Sim.CacheMisses*cost.CacheMiss + p.Sim.CacheRFOs*cost.CacheRFO; v > 0 {
			out = append(out, Attribution{Kind: "cache", Name: "cache-misses",
				Value: v, ShareBP: share(v, total),
				Detail: fmt.Sprintf("%d misses, %d RFOs", p.Sim.CacheMisses, p.Sim.CacheRFOs)})
		}
		for name, cycles := range telemetry.LeafTotals(telemetry.ParseFolded(p.cycles)) {
			out = append(out, Attribution{Kind: "site", Name: name,
				Value: cycles, ShareBP: share(cycles, total), Detail: "simulated cycles in function"})
		}
	case "footprint", "peak_bytes":
		total := reg.new
		free := p.Heap.FreeBytes
		wild := p.Heap.WildernessFree
		if live := p.Footprint - free - wild; live > 0 {
			out = append(out, Attribution{Kind: "heap", Name: "live_bytes",
				Value: live, ShareBP: share(live, total), Detail: "bytes still allocated at exit"})
		}
		if free > 0 {
			out = append(out, Attribution{Kind: "heap", Name: "free_bytes",
				Value: free, ShareBP: share(free, total),
				Detail: fmt.Sprintf("%d free blocks retained, largest %d", p.Heap.FreeBlocks, p.Heap.LargestFree)})
		}
		if wild > 0 {
			out = append(out, Attribution{Kind: "heap", Name: "wilderness_free",
				Value: wild, ShareBP: share(wild, total), Detail: "carved but never-touched tail"})
		}
		if p.sites != nil {
			metric := heapobsv.MetricPeakBytes
			if reg.metric == "footprint" {
				metric = heapobsv.MetricInuseBytes
			}
			for name, bytes := range telemetry.LeafTotals(telemetry.ParseFolded(p.sites.Folded(metric))) {
				out = append(out, Attribution{Kind: "site", Name: name,
					Value: bytes, ShareBP: share(bytes, total), Detail: metric + " at this site"})
			}
		}
	case "int_frag_bp":
		out = append(out, Attribution{Kind: "heap", Name: "granted_vs_requested",
			Value:  p.Heap.GrantedBytes - p.Heap.ReqBytes,
			Detail: fmt.Sprintf("requested %d, size classes granted %d", p.Heap.ReqBytes, p.Heap.GrantedBytes)})
	case "ext_frag_bp":
		out = append(out, Attribution{Kind: "heap", Name: "free_list_shatter",
			Value:  p.Heap.FreeBytes - p.Heap.LargestFree,
			Detail: fmt.Sprintf("%d free bytes in %d blocks, largest only %d", p.Heap.FreeBytes, p.Heap.FreeBlocks, p.Heap.LargestFree)})
	}
	// Context rows (ShareBP 0) always survive; share-carrying rows
	// must clear the noise floor.
	kept := out[:0]
	for _, a := range out {
		if a.ShareBP == 0 && (reg.metric == "int_frag_bp" || reg.metric == "ext_frag_bp") {
			kept = append(kept, a)
		} else if a.ShareBP >= opts.MinShareBP {
			kept = append(kept, a)
		}
	}
	out = kept
	sort.Slice(out, func(i, j int) bool {
		if out[i].ShareBP != out[j].ShareBP {
			return out[i].ShareBP > out[j].ShareBP
		}
		if out[i].Value != out[j].Value {
			return out[i].Value > out[j].Value
		}
		return out[i].Name < out[j].Name
	})
	if len(out) > opts.TopN {
		out = out[:opts.TopN]
	}
	return out
}

// Format renders the explanation as a deterministic human-readable
// report: worst regression first, each with its ranked attributions.
func (ex *Explanation) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "amplify explain: %d regressed metrics (threshold %g%%, noise floor %dbp)\n",
		len(ex.Cells), ex.Threshold, ex.MinShareBP)
	if len(ex.Cells) == 0 {
		b.WriteString("\nno regressions to explain\n")
	}
	for _, c := range ex.Cells {
		fmt.Fprintf(&b, "\n%s %s: %d -> %d (+%dbp)\n", c.Metric, c.Cell, c.Old, c.New, c.SeverityBP)
		if c.Note != "" {
			fmt.Fprintf(&b, "  note: %s\n", c.Note)
		}
		for i, a := range c.Attributions {
			fmt.Fprintf(&b, "  %d. %-6s %-28s %14d", i+1, a.Kind, a.Name, a.Value)
			if a.ShareBP > 0 {
				fmt.Fprintf(&b, " (%s of %s)", bpPct(a.ShareBP), c.Metric)
			}
			if a.Detail != "" {
				fmt.Fprintf(&b, " — %s", a.Detail)
			}
			b.WriteByte('\n')
		}
	}
	if len(ex.Metrics) > 0 {
		b.WriteString("\nreport-level metric deltas (old vs new, ranked):\n")
		max := len(ex.Metrics)
		if max > 15 {
			max = 15
		}
		for _, d := range ex.Metrics[:max] {
			fmt.Fprintf(&b, "  %-28s %14d -> %-14d (%+d, %s share)\n", d.Key, d.Old, d.New, d.Delta, bpPct(d.ShareBP))
		}
		if len(ex.Metrics) > max {
			fmt.Fprintf(&b, "  ... %d more below the fold\n", len(ex.Metrics)-max)
		}
	}
	for _, n := range ex.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// bpPct renders basis points as a percentage.
func bpPct(bp int64) string {
	return fmt.Sprintf("%d.%02d%%", bp/100, bp%100)
}
