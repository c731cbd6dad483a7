package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"amplify/internal/telemetry"
	"amplify/internal/workload"
)

// metricDef declares a printed metric. BENCHMARK.json declares the same
// names, units and directions; the package test holds the two together.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of an untraced run. Op times are in "cal",
// multiples of the calibration work timed just before each op (see
// bench.calibrate), which cancels the host's speed drift. There is no
// median: the op lists mix programs whose costs differ by more than
// tenfold, so the median sits in a gap between op sizes and jumps from
// one op to its neighbour between runs; the geometric mean is the
// central figure.
// The sim_* metrics are simulated results, exact on every run and seed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_cal", "ops/cal", "higher"},
	{"op_gmean_cal", "cal", "lower"},
	{"op_p90_cal", "cal", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"sim_makespan_gmean_cycles", "cycles", "lower"},
	{"sim_footprint_gmean_bytes", "bytes", "lower"},
}

// selfTimed are the layers whose spans the ops record; each gets a
// <layer>.self_ms metric, its self time per op.
var selfTimed = []string{
	"cc.parse", "cc.sema", "vet.check", "vet.escape", "core.rewrite",
	"vm.compile", "vm.run", "bgw.run", "workload.tree",
}

// perLayer are the metrics of a traced run. Times and rates come from
// the traced passes; counters are summed over the op list, each op
// counted once, so they repeat exactly.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range selfTimed {
		defs = append(defs, metricDef{l + ".self_ms", "ms", "lower"})
	}
	for _, a := range workload.ReplayStrategies() {
		defs = append(defs, metricDef{"workload.replay." + a + ".self_ms", "ms", "lower"})
	}
	return append(defs,
		metricDef{"cc.parse.kb_per_s", "KB/s", "higher"},
		metricDef{"vet.check.diagnostics", "count", "lower"},
		metricDef{"core.rewrite.rewrites", "count", "higher"},
		metricDef{"core.rewrite.growth_bp", "bp", "lower"},
		metricDef{"vm.compile.instrs", "count", "lower"},
		metricDef{"vm.run.ns_per_sim_event", "ns", "lower"},
		metricDef{"alloctrace.decode.self_ms", "ms", "lower"},
		metricDef{"alloctrace.decode.mb_per_s", "MB/s", "higher"},
		metricDef{"workload.replay.ns_per_event", "ns", "lower"},
		metricDef{"workload.tree.ns_per_thread", "ns", "lower"},
		metricDef{"alloc.allocs", "count", "lower"},
		metricDef{"alloc.frees", "count", "lower"},
		metricDef{"alloc.peak_bytes", "bytes", "lower"},
		metricDef{"heap.int_frag_bp", "bp", "lower"},
		metricDef{"heap.ext_frag_bp", "bp", "lower"},
		metricDef{"pool.hits", "count", "higher"},
		metricDef{"pool.misses", "count", "lower"},
		metricDef{"pool.hit_bp", "bp", "higher"},
		metricDef{"pool.shadow_reuses", "count", "higher"},
		metricDef{"amplify_speedup_gmean", "x", "higher"},
		metricDef{"sim.migrations", "count", "lower"},
		metricDef{"sim.events", "count", "lower"},
		metricDef{"sim.cache.miss_bp", "bp", "lower"},
		metricDef{"sim.cache.invalidations", "count", "lower"},
		metricDef{"sim.cache.rfos", "count", "lower"},
		metricDef{"sim.lock.acquires", "count", "lower"},
		metricDef{"sim.lock.contended_bp", "bp", "lower"},
		metricDef{"sim.lock.wait_cycles", "cycles", "lower"},
		metricDef{"sim.atomic.cas_failed_bp", "bp", "lower"},
		metricDef{"bench.op_p50_ms", "ms", "lower"},
		metricDef{"bench.op_p90_ms", "ms", "lower"},
		metricDef{"bench.ops_per_s", "ops/s", "higher"},
		metricDef{"bench.cal_ms", "ms", "lower"},
		metricDef{"bench.ops", "count", "higher"},
		metricDef{"trace.overhead_bp", "bp", "lower"},
		metricDef{"trace.coverage_bp", "bp", "higher"},
	)
}()

func endToEndValues(b *bench, samples []sample, setups []float64, rssMiB float64) map[string]float64 {
	var makespans, footprints []float64
	b.eachRun(func(r simRun) {
		makespans = append(makespans, float64(r.makespan))
		footprints = append(footprints, float64(r.footprint))
	})
	cals := make([]float64, len(samples))
	for i, s := range samples {
		cals[i] = s.ms / s.cal
	}
	return map[string]float64{
		"setup_s":                   median(setups),
		"ops_per_cal":               float64(len(cals)) / calSum(samples),
		"op_gmean_cal":              gmean(cals),
		"op_p90_cal":                quantile(cals, 0.9),
		"peak_rss_mb":               rssMiB,
		"sim_makespan_gmean_cycles": gmean(makespans),
		"sim_footprint_gmean_bytes": gmean(footprints),
	}
}

// eachRun visits every simulation of the op list once.
func (b *bench) eachRun(f func(simRun)) {
	for _, o := range b.first {
		if o != nil {
			for _, r := range o.runs[:o.nruns] {
				f(r)
			}
		}
	}
}

// speedups pairs each plain makespan with its amplified one: an
// amplified op and its plain twin, or the two runs of one op.
func (b *bench) speedups() []float64 {
	var xs []float64
	for i, op := range b.ops {
		o := b.first[i]
		switch {
		case o == nil:
		case op.twin >= 0 && b.first[op.twin] != nil:
			xs = append(xs, float64(b.first[op.twin].runs[0].makespan)/float64(o.runs[0].makespan))
		case o.nruns == 2:
			xs = append(xs, float64(o.runs[0].makespan)/float64(o.runs[1].makespan))
		}
	}
	return xs
}

// layers aggregates the spans of the timed, traced ops: one depth-0
// "bench.op" span per op with one child per layer call. The root's own
// self time is the benchmark's bookkeeping between the calls.
type layers struct {
	ops   int
	opNS  int64
	self  map[string]int64 // layer -> summed self time
	attrs map[string]int64 // "layer/attr" -> summed attribute
	// Decoding happens in set-up, so it is reported per set-up.
	setups                int
	decodeNS, decodeBytes int64
}

func layerTimes(spans []telemetry.Span) layers {
	l := layers{self: map[string]int64{}, attrs: map[string]int64{}}
	children := map[string]int64{}
	for _, s := range spans {
		if s.Parent != "" {
			children[s.Parent] += s.DurNS
		}
	}
	roots := map[string]bool{}
	for _, s := range spans {
		switch {
		case s.Depth == 0 && s.Name == "bench.op":
			roots[s.ID] = true
			l.ops++
			l.opNS += s.DurNS
			l.self[s.Name] += s.DurNS - children[s.ID]
		case roots[s.Parent]:
			l.self[s.Name] += s.DurNS - children[s.ID]
			for k, v := range s.Attrs {
				l.attrs[s.Name+"/"+k] += v
			}
		case s.Depth == 0 && s.Name == "bench.setup":
			l.setups++
		case s.Name == "alloctrace.decode":
			l.decodeNS += s.DurNS
			l.decodeBytes += s.Attrs["bytes"]
		}
	}
	return l
}

// table renders each layer's self time per op and share of op time.
func (l layers) table() string {
	names := make([]string, 0, len(l.self))
	for n := range l.self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return l.self[names[i]] > l.self[names[j]] })
	var b strings.Builder
	fmt.Fprintf(&b, "%-30s %14s %8s   (%d traced ops)\n", "layer", "self ms/op", "share", l.ops)
	for _, n := range names {
		fmt.Fprintf(&b, "%-30s %14.4f %7.2f%%\n", n, perOp(l.self[n], l.ops), 100*ratio(l.self[n], l.opNS))
	}
	return b.String()
}

// calSum is the summed op time of samples in cal.
func calSum(samples []sample) float64 {
	var sum float64
	for _, s := range samples {
		sum += s.ms / s.cal
	}
	return sum
}

// perLayerValues computes the per-layer metrics from the spans, the
// op list's outcomes, and the samples of the untraced ([0]) and traced
// ([1]) passes.
func perLayerValues(b *bench, l layers, samples [2][]sample) map[string]float64 {
	v := map[string]float64{}
	untraced := samples[0]
	ms := make([]float64, len(untraced))
	cal := make([]float64, len(untraced))
	var total float64
	for i, s := range untraced {
		ms[i], cal[i] = s.ms, s.cal
		total += s.ms
	}
	v["bench.op_p50_ms"] = quantile(ms, 0.5)
	v["bench.op_p90_ms"] = quantile(ms, 0.9)
	v["bench.ops_per_s"] = float64(len(ms)) / (total / 1e3)
	v["bench.cal_ms"] = median(cal)
	for _, n := range selfTimed {
		v[n+".self_ms"] = perOp(l.self[n], l.ops)
	}
	var replayNS, replayEvents int64
	for _, a := range workload.ReplayStrategies() {
		n := "workload.replay." + a
		v[n+".self_ms"] = perOp(l.self[n], l.ops)
		replayNS += l.self[n]
		replayEvents += l.attrs[n+"/events"]
	}
	v["cc.parse.kb_per_s"] = ratio(l.attrs["cc.parse/bytes"]*1e6, l.self["cc.parse"])
	v["vm.run.ns_per_sim_event"] = ratio(l.self["vm.run"], l.attrs["vm.run/sim_events"])
	v["alloctrace.decode.self_ms"] = perOp(l.decodeNS, l.setups)
	v["alloctrace.decode.mb_per_s"] = ratio(l.decodeBytes*1e3, l.decodeNS)
	v["workload.replay.ns_per_event"] = ratio(replayNS, replayEvents)
	v["workload.tree.ns_per_thread"] = ratio(l.self["workload.tree"], l.attrs["workload.tree/threads"])

	var t struct {
		allocs, frees, peak, req, granted, free, largest     int64
		hits, misses, reuses, migrations, events             int64
		cacheHits, cacheMisses, inval, rfos                  int64
		lockAcq, lockCont, lockWait, cas, casFailed          int64
		diagnostics, rewrites, rewriteIn, rewriteOut, instrs int64
	}
	for _, o := range b.first {
		if o == nil {
			continue
		}
		t.diagnostics += o.diagnostics
		t.rewrites += o.rewrites
		t.rewriteIn += o.rewriteIn
		t.rewriteOut += o.rewriteOut
		t.instrs += o.instrs
	}
	b.eachRun(func(r simRun) {
		t.allocs += r.alloc.Allocs
		t.frees += r.alloc.Frees
		t.peak += r.alloc.PeakBytes
		t.req += r.heapReq
		t.granted += r.heapGranted
		t.free += r.freeBytes
		t.largest += r.largestFree
		t.hits += r.poolHits
		t.misses += r.poolMisses
		t.reuses += r.shadowReuses
		t.migrations += r.stats.Migrations
		t.events += r.events()
		t.cacheHits += r.stats.CacheHits
		t.cacheMisses += r.stats.CacheMisses
		t.inval += r.stats.CacheInvalidations
		t.rfos += r.stats.CacheRFOs
		t.lockAcq += r.stats.LockAcquires
		t.lockCont += r.stats.LockContended
		t.lockWait += r.stats.LockWaitTime
		t.cas += r.stats.AtomicCAS
		t.casFailed += r.stats.AtomicCASFailed
	})
	v["vet.check.diagnostics"] = float64(t.diagnostics)
	v["core.rewrite.rewrites"] = float64(t.rewrites)
	v["core.rewrite.growth_bp"] = ratio((t.rewriteOut-t.rewriteIn)*1e4, t.rewriteIn)
	v["vm.compile.instrs"] = float64(t.instrs)
	v["alloc.allocs"] = float64(t.allocs)
	v["alloc.frees"] = float64(t.frees)
	v["alloc.peak_bytes"] = float64(t.peak)
	v["heap.int_frag_bp"] = ratio((t.granted-t.req)*1e4, t.granted)
	v["heap.ext_frag_bp"] = ratio((t.free-t.largest)*1e4, t.free)
	v["pool.hits"] = float64(t.hits)
	v["pool.misses"] = float64(t.misses)
	v["pool.hit_bp"] = ratio(t.hits*1e4, t.hits+t.misses)
	v["pool.shadow_reuses"] = float64(t.reuses)
	v["amplify_speedup_gmean"] = gmean(b.speedups())
	v["sim.migrations"] = float64(t.migrations)
	v["sim.events"] = float64(t.events)
	v["sim.cache.miss_bp"] = ratio(t.cacheMisses*1e4, t.cacheHits+t.cacheMisses)
	v["sim.cache.invalidations"] = float64(t.inval)
	v["sim.cache.rfos"] = float64(t.rfos)
	v["sim.lock.acquires"] = float64(t.lockAcq)
	v["sim.lock.contended_bp"] = ratio(t.lockCont*1e4, t.lockAcq)
	v["sim.lock.wait_cycles"] = float64(t.lockWait)
	v["sim.atomic.cas_failed_bp"] = ratio(t.casFailed*1e4, t.cas)
	v["bench.ops"] = float64(l.ops)
	v["trace.overhead_bp"] = 1e4 * (calSum(samples[1])/calSum(untraced) - 1)
	v["trace.coverage_bp"] = 1e4 * (1 - ratio(l.self["bench.op"], l.opNS))
	return v
}

// ratio is num/den, or 0 when nothing was measured.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// perOp converts summed nanoseconds to milliseconds per op.
func perOp(ns int64, ops int) float64 { return ratio(ns, int64(ops)) / 1e6 }

// gmean is the geometric mean, or 0 for no values.
func gmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
