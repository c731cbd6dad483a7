// Package heapobsv is the heap-introspection layer: it turns the
// simulation's event stream (sim.Tracer) plus the pull-based inspectors
// (alloc.Inspector, pool.Runtime.Inspect, reached through pool.Watcher)
// into deterministic artifacts — virtual-time heap timelines (JSONL/CSV)
// and pprof-style allocation-site profiles (folded stacks).
//
// Everything here is host-side bookkeeping: no simulated work is ever
// charged, so a run with observation enabled produces byte-identical
// makespans to one without. The simulator's coroutine scheduler runs
// one simulated thread at a time, so no locking is needed.
package heapobsv

import (
	"fmt"
	"strings"

	"amplify/internal/alloc"
	"amplify/internal/mem"
	"amplify/internal/pool"
	"amplify/internal/sim"
)

// DefaultInterval is the sampling period, in cycles, when Timeline's
// Interval is left zero.
const DefaultInterval = 50_000

// Sample is one row of the heap timeline. Fragmentation ratios are
// reported in basis points (1/100 of a percent) so the artifact stays
// integer-only and bit-stable across hosts.
type Sample struct {
	Now       int64 `json:"now"`
	Footprint int64 `json:"footprint"`

	// Allocator view (alloc.Stats + alloc.Inspector).
	LiveBlocks  int64 `json:"live_blocks"`
	LiveBytes   int64 `json:"live_bytes"`
	PeakBytes   int64 `json:"peak_bytes"`
	FreeBytes   int64 `json:"free_bytes"`
	FreeBlocks  int64 `json:"free_blocks"`
	LargestFree int64 `json:"largest_free"`
	WildFree    int64 `json:"wilderness_free"`
	WildHW      int64 `json:"wilderness_hw"`
	IntFragBP   int64 `json:"int_frag_bp"`
	ExtFragBP   int64 `json:"ext_frag_bp"`

	// Cumulative event counters (the event stream).
	Allocs       int64 `json:"allocs"`
	Frees        int64 `json:"frees"`
	PoolHits     int64 `json:"pool_hits"`
	PoolMisses   int64 `json:"pool_misses"`
	PoolSteals   int64 `json:"pool_steals"`
	PoolReleases int64 `json:"pool_releases"`
	ShadowReuses int64 `json:"shadow_reuses"`
	ShadowMisses int64 `json:"shadow_misses"`

	// Pool runtime view (pool.Runtime.Inspect).
	PoolRetained      int64 `json:"pool_retained"`
	PoolRetainedBytes int64 `json:"pool_retained_bytes"`
	PoolHitRateBP     int64 `json:"pool_hit_rate_bp"`
}

// Timeline samples heap state whenever virtual time crosses an
// interval boundary, driven purely by the allocator and pool events it
// observes. Because sampling depends only on virtual time and the
// deterministic event order, the exported artifact is byte-identical
// across hosts and -j values.
type Timeline struct {
	// Interval is the virtual-time sampling period in cycles;
	// DefaultInterval when zero.
	Interval int64

	sp   *mem.Space
	a    alloc.Allocator
	rt   *pool.Runtime
	next int64

	allocs, frees              int64
	poolHits, poolMisses       int64
	poolSteals, poolReleases   int64
	shadowReuses, shadowMisses int64

	samples []Sample
}

// Watch implements pool.Watcher: it attaches the address space,
// allocator and pool runtime (nil for pool-less runs) whose state the
// samples report.
func (t *Timeline) Watch(sp *mem.Space, a alloc.Allocator, rt *pool.Runtime) {
	t.sp, t.a, t.rt = sp, a, rt
}

// Event implements sim.Tracer. Allocator and pool events advance the
// counters and may trigger a sample; every other kind is ignored.
func (t *Timeline) Event(e sim.Event) {
	switch e.Kind {
	case sim.EvHeapAlloc:
		t.allocs++
	case sim.EvHeapFree:
		t.frees++
	case sim.EvPoolHit:
		t.poolHits++
		t.poolSteals += e.Arg3 // 1 when served from another shard
	case sim.EvPoolMiss:
		t.poolMisses++
	case sim.EvPoolRelease:
		t.poolReleases++
	case sim.EvShadowReuse:
		t.shadowReuses++
	case sim.EvShadowMiss:
		t.shadowMisses++
	default:
		return
	}
	now := e.Time
	if now >= t.next {
		t.sample(now)
		iv := t.Interval
		if iv <= 0 {
			iv = DefaultInterval
		}
		t.next = (now/iv + 1) * iv
	}
}

// Finish records the final sample at the run's makespan.
func (t *Timeline) Finish(makespan int64) { t.sample(makespan) }

func (t *Timeline) sample(now int64) {
	s := Sample{
		Now:          now,
		Allocs:       t.allocs,
		Frees:        t.frees,
		PoolHits:     t.poolHits,
		PoolMisses:   t.poolMisses,
		PoolSteals:   t.poolSteals,
		PoolReleases: t.poolReleases,
		ShadowReuses: t.shadowReuses,
		ShadowMisses: t.shadowMisses,
	}
	if t.sp != nil {
		s.Footprint = t.sp.Footprint()
	}
	if t.a != nil {
		st := t.a.Stats()
		s.LiveBlocks, s.LiveBytes, s.PeakBytes = st.LiveBlocks, st.LiveBytes, st.PeakBytes
		if insp, ok := t.a.(alloc.Inspector); ok {
			hi := insp.Inspect()
			s.FreeBytes, s.FreeBlocks, s.LargestFree = hi.FreeBytes, hi.FreeBlocks, hi.LargestFree
			s.WildFree, s.WildHW = hi.WildernessFree, hi.WildernessHW
			s.IntFragBP = fragBP(hi.ReqBytes, hi.GrantedBytes)
			s.ExtFragBP = fragBP(hi.LargestFree, hi.FreeBytes)
		}
	}
	if t.rt != nil {
		var hits, misses int64
		for _, pi := range t.rt.Inspect() {
			s.PoolRetained += pi.Retained
			s.PoolRetainedBytes += pi.RetainedBytes
			hits += pi.Hits
			misses += pi.Misses
		}
		if hits+misses > 0 {
			s.PoolHitRateBP = hits * 10000 / (hits + misses)
		}
	}
	t.samples = append(t.samples, s)
}

// fragBP is (1 - part/whole) in basis points; zero when whole is zero.
func fragBP(part, whole int64) int64 {
	if whole == 0 {
		return 0
	}
	return 10000 - part*10000/whole
}

// csvColumns fixes the column order of both exports.
var csvColumns = []string{
	"now", "footprint",
	"live_blocks", "live_bytes", "peak_bytes",
	"free_bytes", "free_blocks", "largest_free",
	"wilderness_free", "wilderness_hw",
	"int_frag_bp", "ext_frag_bp",
	"allocs", "frees",
	"pool_hits", "pool_misses", "pool_steals", "pool_releases",
	"shadow_reuses", "shadow_misses",
	"pool_retained", "pool_retained_bytes", "pool_hit_rate_bp",
}

func (s *Sample) values() []int64 {
	return []int64{
		s.Now, s.Footprint,
		s.LiveBlocks, s.LiveBytes, s.PeakBytes,
		s.FreeBytes, s.FreeBlocks, s.LargestFree,
		s.WildFree, s.WildHW,
		s.IntFragBP, s.ExtFragBP,
		s.Allocs, s.Frees,
		s.PoolHits, s.PoolMisses, s.PoolSteals, s.PoolReleases,
		s.ShadowReuses, s.ShadowMisses,
		s.PoolRetained, s.PoolRetainedBytes, s.PoolHitRateBP,
	}
}

// JSONL renders the timeline as one JSON object per line, keys in the
// fixed csvColumns order. The bytes are deterministic for a given run.
func (t *Timeline) JSONL() []byte {
	var b strings.Builder
	for i := range t.samples {
		vals := t.samples[i].values()
		b.WriteByte('{')
		for j, col := range csvColumns {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%q:%d", col, vals[j])
		}
		b.WriteString("}\n")
	}
	return []byte(b.String())
}

// CSV renders the timeline as comma-separated values with a header.
func (t *Timeline) CSV() []byte {
	var b strings.Builder
	b.WriteString(strings.Join(csvColumns, ","))
	b.WriteByte('\n')
	for i := range t.samples {
		for j, v := range t.samples[i].values() {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", v)
		}
		b.WriteByte('\n')
	}
	return []byte(b.String())
}
