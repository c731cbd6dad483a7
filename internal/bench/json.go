package bench

import (
	"runtime"
	"time"
)

// ReportSchema identifies the BENCH.json layout; bump on incompatible
// changes so trajectory tooling can dispatch on it. Version 2 added
// the unified metrics registry snapshot (Metrics); version 3 added the
// per-cell heap map (Heap) and per-experiment heap headlines; version
// 4 adds the escape-analysis verdict section (Escape) stamped by the
// escape experiment; version 5 adds the datacenter-scale grid cells
// (scale/...) to Makespans; version 6 adds the contention-scaling
// grid cells (contend/...) and the sim.atomic.* counters to Metrics;
// version 7 adds the trace-replay grid cells (replay/<corpus>/<alloc>)
// from the committed alloctrace corpora; the simulated makespans of
// pre-existing cells are unchanged from version 1.
const ReportSchema = "amplify-bench/7"

// Report is the machine-readable record of one amplifybench
// invocation: what ran, how long the host took, and every simulated
// makespan the experiments measured. Committed snapshots of this
// struct (BENCH_baseline.json) form the bench trajectory of the repo.
type Report struct {
	Schema      string             `json:"schema"`
	Quick       bool               `json:"quick"`
	VMNoOpt     bool               `json:"vm_no_opt"`
	Jobs        int                `json:"jobs"`
	HostCPUs    int                `json:"host_cpus"`
	WallSeconds float64            `json:"wall_seconds"`
	Experiments []ExperimentReport `json:"experiments"`
	// Makespans maps every memoized simulation cell to its virtual-time
	// makespan. These are deterministic: they must not change across
	// hosts, -j values, or reruns — only across semantic changes to the
	// simulator or workloads.
	Makespans map[string]int64 `json:"makespans"`
	// Metrics is the unified observability registry: aggregate
	// simulator, allocator and pool counters summed over every memo
	// cell the experiments computed (see Runner.Metrics). Deterministic
	// for a given experiment set, like Makespans.
	Metrics map[string]int64 `json:"metrics"`
	// Heap maps every memoized cell to its memory-consumption numbers:
	// final footprint, peak live bytes, and the allocator's internal/
	// external fragmentation in basis points. Integer-only and
	// deterministic, like Makespans — -compare diffs these too.
	Heap map[string]HeapCell `json:"heap,omitempty"`
	// Escape is the interprocedural analysis's per-class/per-site
	// verdict section over the committed corpus, stamped when the
	// escape experiment runs (schema v4). Deterministic: it depends
	// only on the analyzer and the corpus sources.
	Escape []EscapeWorkloadReport `json:"escape,omitempty"`
}

// HeapCell is one simulation's memory-consumption record.
type HeapCell struct {
	Footprint int64 `json:"footprint"`
	PeakBytes int64 `json:"peak_bytes"`
	IntFragBP int64 `json:"int_frag_bp"`
	ExtFragBP int64 `json:"ext_frag_bp"`
}

// HeapHeadline condenses one experiment's memory consumption: the
// peak and mean final footprint over its cells, and the worst
// fragmentation seen (basis points). MeanFootprint uses integer
// division so reports stay bit-stable across hosts.
type HeapHeadline struct {
	PeakFootprint  int64 `json:"peak_footprint"`
	MeanFootprint  int64 `json:"mean_footprint"`
	WorstIntFragBP int64 `json:"worst_int_frag_bp"`
	WorstExtFragBP int64 `json:"worst_ext_frag_bp"`
}

// ExperimentReport records one experiment: host wall-clock spent
// assembling it, and — for figures — the plotted series plus the
// headline speedup.
type ExperimentReport struct {
	Name        string         `json:"name"`
	WallSeconds float64        `json:"wall_seconds"`
	X           []int          `json:"x,omitempty"`
	Series      []SeriesReport `json:"series,omitempty"`
	Headline    *Headline      `json:"headline,omitempty"`
	// EngineSpeedup (endtoend only) is the host wall-clock ratio of the
	// VM with its bytecode optimizer off vs on — host-side, so excluded
	// from determinism checks, which diff only Makespans.
	EngineSpeedup float64 `json:"engine_speedup,omitempty"`
	// Heap summarizes the memory consumption of the cells this
	// experiment reads (schema v3).
	Heap *HeapHeadline `json:"heap,omitempty"`
}

// SeriesReport is one plotted line of a figure.
type SeriesReport struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
}

// Headline is a figure's best speedup: which series reached it and at
// which x value.
type Headline struct {
	Series  string  `json:"series"`
	X       int     `json:"x"`
	Speedup float64 `json:"speedup"`
}

// Report runs the named experiments and assembles their
// machine-readable record. Cells already warmed by Precompute are
// recalled from the memo, so per-experiment wall times then measure
// assembly only; WallSeconds of the whole report is left for the
// caller to stamp (it should cover Precompute too).
func (r *Runner) Report(names []string) (*Report, error) {
	rep := &Report{
		Schema:   ReportSchema,
		Quick:    r.quick,
		VMNoOpt:  r.VMNoOpt,
		Jobs:     r.Jobs,
		HostCPUs: runtime.NumCPU(),
	}
	var headlineCells [][]cell
	for _, name := range names {
		e, err := lookup(name)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		er := ExperimentReport{Name: name}
		if e.figure != nil {
			f, err := e.figure(r)
			if err != nil {
				return nil, err
			}
			er.X = f.X
			for _, s := range f.Series {
				er.Series = append(er.Series, SeriesReport{Name: s.Name, Values: s.Values})
			}
			er.Headline = headlineOf(f)
		} else if _, err := e.render(r); err != nil {
			return nil, err
		}
		if e.report != nil {
			if err := e.report(r, rep, &er); err != nil {
				return nil, err
			}
		}
		er.WallSeconds = time.Since(start).Seconds()
		rep.Experiments = append(rep.Experiments, er)
		// Headlines need the full heap map, so they are stamped after
		// the experiment loop: each summarizes the cells it reads.
		headlineCells = append(headlineCells, e.cells(r))
	}
	rep.Makespans = r.Makespans()
	rep.Metrics = r.Metrics()
	rep.Heap = r.HeapCells()
	for i, cells := range headlineCells {
		rep.Experiments[i].Heap = heapHeadlineOf(cells, rep.Heap)
	}
	return rep, nil
}

// heapHeadlineOf condenses the heap records of the given cells, or nil
// when none of them carry heap data.
func heapHeadlineOf(cells []cell, heap map[string]HeapCell) *HeapHeadline {
	var h *HeapHeadline
	var sum, n int64
	seen := make(map[string]bool, len(cells))
	for _, cl := range cells {
		c, ok := heap[cl.key]
		if !ok || seen[cl.key] {
			continue
		}
		seen[cl.key] = true
		if h == nil {
			h = &HeapHeadline{}
		}
		if c.Footprint > h.PeakFootprint {
			h.PeakFootprint = c.Footprint
		}
		if c.IntFragBP > h.WorstIntFragBP {
			h.WorstIntFragBP = c.IntFragBP
		}
		if c.ExtFragBP > h.WorstExtFragBP {
			h.WorstExtFragBP = c.ExtFragBP
		}
		sum += c.Footprint
		n++
	}
	if h != nil {
		h.MeanFootprint = sum / n
	}
	return h
}

// headlineOf picks the figure's best speedup across all series.
func headlineOf(f *Figure) *Headline {
	var h *Headline
	for _, s := range f.Series {
		for i, v := range s.Values {
			if h == nil || v > h.Speedup {
				h = &Headline{Series: s.Name, X: f.X[i], Speedup: v}
			}
		}
	}
	return h
}

// HeapCells extracts the memory-consumption record of every completed
// memo cell, keyed like Makespans.
func (r *Runner) HeapCells() map[string]HeapCell {
	m := make(map[string]HeapCell)
	r.cells.completed(func(key string, v measured) {
		m[key] = HeapCell{
			Footprint: v.Footprint,
			PeakBytes: v.PeakBytes,
			IntFragBP: fragBP(v.Heap.ReqBytes, v.Heap.GrantedBytes),
			ExtFragBP: fragBP(v.Heap.LargestFree, v.Heap.FreeBytes),
		}
	})
	return m
}

// fragBP is (1 - part/whole) in basis points; zero when whole is zero.
func fragBP(part, whole int64) int64 {
	if whole == 0 {
		return 0
	}
	return 10000 - part*10000/whole
}

// Makespans extracts the simulated makespan of every completed memo
// cell, keyed by cell name. encoding/json emits map keys sorted, so
// the serialized form is stable for diffing across runs.
func (r *Runner) Makespans() map[string]int64 {
	m := make(map[string]int64)
	r.cells.completed(func(key string, v measured) { m[key] = v.Makespan })
	return m
}
