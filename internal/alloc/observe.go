package alloc

import (
	"amplify/internal/mem"
	"amplify/internal/sim"
)

// ObsOp identifies one observed allocator or pool event.
type ObsOp uint8

const (
	// ObsAlloc and ObsFree are emitted by every allocator on the way out
	// of Alloc/Free; bytes is the usable block size.
	ObsAlloc ObsOp = iota
	ObsFree
	// Pool runtime events: a hit serves from a free list, a miss falls
	// through to the underlying allocator, a release returns an object
	// to the allocator because the pool is full, a steal migrates an
	// object between shards, a trim evicts retained objects.
	ObsPoolHit
	ObsPoolMiss
	ObsPoolRelease
	ObsPoolSteal
	ObsPoolTrim
	// Shadow-pointer events: a reuse recycles the shadow block in place,
	// a miss reallocates.
	ObsShadowReuse
	ObsShadowMiss
)

var obsNames = [...]string{
	ObsAlloc:       "alloc",
	ObsFree:        "free",
	ObsPoolHit:     "pool_hit",
	ObsPoolMiss:    "pool_miss",
	ObsPoolRelease: "pool_release",
	ObsPoolSteal:   "pool_steal",
	ObsPoolTrim:    "pool_trim",
	ObsShadowReuse: "shadow_reuse",
	ObsShadowMiss:  "shadow_miss",
}

// String returns the stable lower-case name of the event kind.
func (op ObsOp) String() string {
	if int(op) < len(obsNames) {
		return obsNames[op]
	}
	return "unknown"
}

// Observer receives allocator events in virtual time. Implementations
// must not charge simulated work or memory traffic: observation never
// changes a makespan. The simulator's coroutine scheduler runs only
// one simulated thread at a time, so observers need no locking.
//
// Every call site is guarded by a single nil check; a run without an
// observer pays one untaken branch per operation.
type Observer interface {
	Observe(now int64, op ObsOp, bytes int64)
}

// TraceObserver is an Observer that wants the full identity of every
// allocator operation: the calling thread, requested vs granted bytes,
// and the block reference. Allocators emit Alloc/Free through
// EmitAlloc/EmitFree, which upgrade to this interface when the attached
// observer implements it (alloctrace.Recorder does); plain observers
// keep receiving the ObsAlloc/ObsFree summary events unchanged.
type TraceObserver interface {
	Observer
	ObserveAlloc(now int64, thread int, req, granted int64, ref mem.Ref)
	ObserveFree(now int64, thread int, granted int64, ref mem.Ref)
}

// EmitAlloc reports one completed allocation to o: req bytes were
// requested, granted usable bytes were returned at ref. Callers
// nil-check o first — a run without an observer pays one untaken
// branch. Like Observe, emission charges no simulated work.
func EmitAlloc(o Observer, c *sim.Ctx, req, granted int64, ref mem.Ref) {
	if t, ok := o.(TraceObserver); ok {
		t.ObserveAlloc(c.Now(), c.ThreadID(), req, granted, ref)
		return
	}
	o.Observe(c.Now(), ObsAlloc, granted)
}

// EmitFree reports one completed free of the granted-byte block at ref.
func EmitFree(o Observer, c *sim.Ctx, granted int64, ref mem.Ref) {
	if t, ok := o.(TraceObserver); ok {
		t.ObserveFree(c.Now(), c.ThreadID(), granted, ref)
		return
	}
	o.Observe(c.Now(), ObsFree, granted)
}

// Watcher is an Observer that additionally pulls gauge snapshots
// (footprint, fragmentation, free-list depths). Engines that construct
// their own allocator attach the space and allocator before running so
// the observer can sample them when virtual time crosses an interval.
type Watcher interface {
	Observer
	Watch(sp *mem.Space, a Allocator)
}

// Inspector is implemented by allocators that can report their internal
// heap state. Inspect is pull-based and host-side only: it charges no
// simulated work, so it may be called mid-run by an Observer or after
// e.Run() for end-of-run summaries.
type Inspector interface {
	Inspect() HeapInfo
}

// HeapInfo is a point-in-time snapshot of an allocator's internal
// state. All byte counts are usable bytes (headers excluded).
type HeapInfo struct {
	// FreeBytes and FreeBlocks cover the binned free lists of every
	// constituent heap (pool free lists are reported separately by the
	// pool runtime). LargestFree is the largest single free block.
	FreeBytes, FreeBlocks, LargestFree int64
	// WildernessFree is the untouched tail of the carved wilderness
	// region(s); WildernessHW is the largest wilderness reserve any
	// constituent heap ever held.
	WildernessFree, WildernessHW int64
	// ReqBytes and GrantedBytes are cumulative: what callers asked for
	// versus what the size classes granted. Their ratio is the internal
	// fragmentation of the run so far.
	ReqBytes, GrantedBytes int64
	// Arenas breaks the state down per constituent heap (ptmalloc
	// arenas, hoard heaps, smartheap thread caches, lkmalloc
	// per-processor heaps). Empty for single-heap allocators.
	Arenas []ArenaInfo
}

// ArenaInfo is the occupancy of one constituent heap.
type ArenaInfo struct {
	Name       string `json:"name"`
	LiveBlocks int64  `json:"live_blocks"`
	LiveBytes  int64  `json:"live_bytes"`
	FreeBlocks int64  `json:"free_blocks"`
	FreeBytes  int64  `json:"free_bytes"`
}

// InternalFrag is the fraction of granted bytes the callers never asked
// for: 1 - requested/granted, in [0,1). Zero when nothing was granted.
func (h HeapInfo) InternalFrag() float64 {
	if h.GrantedBytes == 0 {
		return 0
	}
	return 1 - float64(h.ReqBytes)/float64(h.GrantedBytes)
}

// ExternalFrag measures how scattered the free memory is:
// 1 - largest_free/free_bytes, in [0,1). Zero when nothing is free.
func (h HeapInfo) ExternalFrag() float64 {
	if h.FreeBytes == 0 {
		return 0
	}
	return 1 - float64(h.LargestFree)/float64(h.FreeBytes)
}

// Merge folds another snapshot into h (used by multi-heap allocators to
// aggregate their constituent heaps). Arenas are not merged.
func (h *HeapInfo) Merge(o HeapInfo) {
	h.FreeBytes += o.FreeBytes
	h.FreeBlocks += o.FreeBlocks
	if o.LargestFree > h.LargestFree {
		h.LargestFree = o.LargestFree
	}
	h.WildernessFree += o.WildernessFree
	if o.WildernessHW > h.WildernessHW {
		h.WildernessHW = o.WildernessHW
	}
	h.ReqBytes += o.ReqBytes
	h.GrantedBytes += o.GrantedBytes
}
