package alloc

// Inspector is implemented by allocators that can report their internal
// heap state. Inspect is pull-based and host-side only: it charges no
// simulated work, so it may be called mid-run by a tracer sampling
// gauges (pool.Watcher) or after e.Run() for end-of-run summaries.
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
