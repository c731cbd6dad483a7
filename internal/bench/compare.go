package bench

import (
	"fmt"
	"sort"
	"strings"
)

// Comparison is the result of diffing two bench reports (a committed
// baseline vs a fresh run). It separates hard regressions — which
// should fail CI — from improvements and informational notes.
//
// What is compared, and how:
//
//   - Makespans are simulated virtual time and fully deterministic, so
//     any increase past the threshold is a regression and any decrease
//     is an improvement. With threshold 0 (the CI setting) the check
//     degenerates to exact equality.
//   - Heap footprint and peak live bytes are deterministic too; lower
//     is better, same threshold.
//   - Fragmentation is in basis points and often near zero, so a
//     relative threshold would be degenerate; the percent threshold is
//     reinterpreted as percentage points (threshold×100 bp of slack).
//   - Host-measured numbers (wall_seconds, engine_speedup) are never
//     compared — they are noise by construction.
//
// Cells present in only one report are tolerated: a quick run diffed
// against a full baseline compares just the overlap, and brand-new
// cells cannot regress anything. Both are counted and noted, so a
// silently shrinking overlap is still visible.
type Comparison struct {
	Threshold    float64  // percent (and frag percentage points)
	Common       int      // cells compared
	OnlyOld      int      // baseline cells absent from the new report
	OnlyNew      int      // new cells absent from the baseline
	Regressions  []string // threshold-exceeding degradations
	Improvements []string
	Notes        []string // sub-threshold drifts, coverage, schema skew
}

// Regressed reports whether the diff should fail the build.
func (c *Comparison) Regressed() bool { return len(c.Regressions) > 0 }

// Format renders the comparison as a human-readable diff summary.
func (c *Comparison) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "bench compare: %d cells compared (%d baseline-only, %d new), threshold %g%%\n",
		c.Common, c.OnlyOld, c.OnlyNew, c.Threshold)
	section := func(title string, lines []string) {
		if len(lines) == 0 {
			return
		}
		fmt.Fprintf(&b, "\n%s (%d):\n", title, len(lines))
		for _, l := range lines {
			fmt.Fprintf(&b, "  %s\n", l)
		}
	}
	section("REGRESSIONS", c.Regressions)
	section("improvements", c.Improvements)
	section("notes", c.Notes)
	if !c.Regressed() {
		b.WriteString("\nno regressions\n")
	}
	return b.String()
}

// Compare diffs a fresh report against a baseline. thresholdPct is the
// allowed relative degradation in percent (0 = exact). Schema skew is
// tolerated down to amplify-bench/1 — older baselines simply lack the
// heap section — but a report from an unrelated tool is an error, not
// an empty diff that would pass CI vacuously.
func Compare(baseline, current *Report, thresholdPct float64) (*Comparison, error) {
	c, err := newComparison("report", "amplify-bench/", baseline.Schema, current.Schema, thresholdPct)
	if err != nil {
		return nil, err
	}
	c.diff(reportMetrics(baseline), reportMetrics(current),
		"no overlapping cells: the baseline and the report measure disjoint runs")
	return c, nil
}

// CompareHost diffs a fresh host-benchmark report against a committed
// baseline (BENCH_host.json). NsPerOp and AllocsPerOp are compared per
// benchmark name; lower is better for both. NsPerOp is a host
// wall-clock measurement, noisy by construction, so the threshold is
// expected to be generous (tens of percent, not zero): it catches
// order-of-magnitude host regressions, not single-digit drift.
// AllocsPerOp is a counter that repeats between runs and GOMAXPROCS
// settings to within a few allocations in thousands, so it is gated at
// allocsTolerancePct instead, or at the threshold when that is
// tighter. Benchmarks present in only one report are tolerated and
// counted, like cells in Compare.
func CompareHost(baseline, current *HostReport, thresholdPct float64) (*Comparison, error) {
	c, err := newComparison("host report", "amplify-hostbench/", baseline.Schema, current.Schema, thresholdPct)
	if err != nil {
		return nil, err
	}
	if baseline.GoVersion != current.GoVersion {
		c.Notes = append(c.Notes, fmt.Sprintf("go version skew: baseline %s, current %s",
			baseline.GoVersion, current.GoVersion))
	}
	c.Notes = append(c.Notes, fmt.Sprintf("allocs_per_op threshold %g%%", min(thresholdPct, allocsTolerancePct)))
	c.diff(hostMetrics(baseline), hostMetrics(current),
		"no overlapping benchmarks: the baseline and the report measure disjoint suites")
	return c, nil
}

// allocsTolerancePct is the largest rise in a host benchmark's
// allocs_per_op that CompareHost lets pass, whatever its threshold.
// Over five runs each at GOMAXPROCS 1 and 2, every row's count
// repeated to within 0.13%.
const allocsTolerancePct = 1.0

// newComparison checks both reports' schemas against the kind's
// prefix — a report from an unrelated tool is an error, not an empty
// diff that would pass CI vacuously — and notes schema skew.
func newComparison(kind, prefix, baseSchema, curSchema string, thresholdPct float64) (*Comparison, error) {
	for _, schema := range []string{baseSchema, curSchema} {
		if !strings.HasPrefix(schema, prefix) {
			return nil, fmt.Errorf("bench: unknown %s schema %q", kind, schema)
		}
	}
	if thresholdPct < 0 {
		return nil, fmt.Errorf("bench: negative threshold %g", thresholdPct)
	}
	c := &Comparison{Threshold: thresholdPct}
	if baseSchema != curSchema {
		c.Notes = append(c.Notes, fmt.Sprintf("schema skew: baseline %s, current %s", baseSchema, curSchema))
	}
	return c, nil
}

// metric is one named number of a compared key; lower is better.
// absoluteBP switches from the relative percent threshold to an
// absolute basis-point slack (threshold×100), for metrics whose
// baseline is legitimately zero. maxPct, when non-zero, caps the
// threshold for this metric.
type metric struct {
	name       string
	v          int64
	absoluteBP bool
	maxPct     float64
}

// reportMetrics lists every cell's compared numbers: the makespan,
// then the heap record when the report has one for the cell (v1/v2
// reports, and cells that predate heap capture, have none).
func reportMetrics(rep *Report) map[string][]metric {
	m := make(map[string][]metric, len(rep.Makespans))
	for key, ms := range rep.Makespans {
		vals := []metric{{name: "makespan", v: ms}}
		if h, ok := rep.Heap[key]; ok {
			vals = append(vals,
				metric{name: "footprint", v: h.Footprint},
				metric{name: "peak_bytes", v: h.PeakBytes},
				metric{name: "int_frag_bp", v: h.IntFragBP, absoluteBP: true},
				metric{name: "ext_frag_bp", v: h.ExtFragBP, absoluteBP: true})
		}
		m[key] = vals
	}
	return m
}

// hostMetrics lists every host benchmark's compared numbers.
func hostMetrics(rep *HostReport) map[string][]metric {
	m := make(map[string][]metric, len(rep.Benchmarks))
	for _, b := range rep.Benchmarks {
		m[b.Name] = []metric{
			{name: "ns_per_op", v: b.NsPerOp},
			{name: "allocs_per_op", v: b.AllocsPerOp, maxPct: allocsTolerancePct},
		}
	}
	return m
}

// eachPair calls f for every metric both sides carry, keys in sorted
// order, and counts the keys: on both sides, and on one side only.
func eachPair(old, new map[string][]metric, f func(key string, o, n metric)) (common, onlyOld, onlyNew int) {
	keys := make([]string, 0, len(old)+len(new))
	for k := range old {
		keys = append(keys, k)
	}
	for k := range new {
		if _, ok := old[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, key := range keys {
		om, inOld := old[key]
		nm, inNew := new[key]
		switch {
		case !inNew:
			onlyOld++
			continue
		case !inOld:
			onlyNew++
			continue
		}
		common++
		for _, o := range om {
			for _, n := range nm {
				if n.name == o.name {
					f(key, o, n)
				}
			}
		}
	}
	return common, onlyOld, onlyNew
}

// diff classifies every paired metric, and flags an empty overlap as a
// regression with the given message.
func (c *Comparison) diff(old, new map[string][]metric, disjoint string) {
	c.Common, c.OnlyOld, c.OnlyNew = eachPair(old, new, func(key string, o, n metric) {
		threshold := c.Threshold
		if o.maxPct > 0 {
			threshold = min(threshold, o.maxPct)
		}
		c.compareValue(o.name, key, o.v, n.v, o.absoluteBP, threshold)
	})
	if c.Common == 0 {
		c.Regressions = append(c.Regressions, disjoint)
	}
}

// compareValue classifies one metric's old→new movement against
// thresholdPct.
func (c *Comparison) compareValue(metric, key string, old, new int64, absoluteBP bool, thresholdPct float64) {
	if old == new {
		return
	}
	delta := fmt.Sprintf("%+.2f%%", relPct(old, new))
	if absoluteBP {
		delta = fmt.Sprintf("%+dbp", new-old)
	}
	line := fmt.Sprintf("%s %s: %d -> %d (%s)", metric, key, old, new, delta)
	switch {
	case new < old:
		c.Improvements = append(c.Improvements, line)
	case exceeds(old, new, absoluteBP, thresholdPct):
		c.Regressions = append(c.Regressions, line)
	default:
		c.Notes = append(c.Notes, "within threshold: "+line)
	}
}

// exceeds reports whether a rise from old to new is past the
// threshold: percent, or percentage points (×100 bp) for absoluteBP
// metrics. Any rise from a zero baseline exceeds a relative bar.
func exceeds(old, new int64, absoluteBP bool, thresholdPct float64) bool {
	switch {
	case absoluteBP:
		return float64(new-old) > thresholdPct*100
	case old == 0:
		return true
	}
	return relPct(old, new) > thresholdPct
}

// relPct is the relative change from old to new in percent.
func relPct(old, new int64) float64 {
	if old == 0 {
		return 0
	}
	return 100 * float64(new-old) / float64(old)
}
