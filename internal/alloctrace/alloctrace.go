// Package alloctrace defines the repository's versioned, deterministic
// allocation-trace format: the observability artifact that closes the
// profile-driven loop of the source paper's method. A trace is the
// allocator-facing request stream of one simulated run — every Alloc
// and Free with its thread, requested and granted bytes, MiniCC
// allocation site (when the VM is the driver), virtual timestamp, and
// a free→alloc back-reference that pins the lifetime structure.
//
// Traces are captured by a Recorder attached as the run's sim.Tracer
// (so any run — an mccrun program, a bench cell,
// a churn workload — can be recorded without changing its makespan),
// serialized as a compact varint-delta binary with a JSONL mirror, and
// replayed through the full allocator grid by workload.RunReplay. The
// committed corpora under testdata/traces/ are synthesized from the
// "Heap vs. Stack" study's real-world allocation-size and lifetime
// distributions (see synth.go).
//
// Everything here is host-side and deterministic: capturing the same
// simulation twice — at any bench -j parallelism — produces
// byte-identical traces, and replaying a trace is itself a
// deterministic simulation that can be re-captured byte-identically.
package alloctrace

import (
	"fmt"
)

// Op is the kind of one trace event.
type Op uint8

const (
	// OpAlloc is one allocator Alloc call; OpFree the matching Free.
	OpAlloc Op = iota
	OpFree
)

// String returns the stable lower-case name of the op.
func (op Op) String() string {
	switch op {
	case OpAlloc:
		return "alloc"
	case OpFree:
		return "free"
	}
	return "unknown"
}

// Event is one allocator operation of a trace.
type Event struct {
	// Op is the operation kind.
	Op Op
	// Thread indexes the trace's Threads table: which simulated thread
	// issued the operation. Replay preserves per-thread event order.
	Thread int32
	// Now is the virtual timestamp at capture. Timestamps follow the
	// capture's deterministic global event order but are not globally
	// monotone: the scheduler interleaves per-thread clocks.
	Now int64
	// Site indexes the trace's Sites table (alloc only). Site 0 is the
	// empty "unknown" site; VM-driven captures attribute MiniCC
	// "fn@line(Class)" sites from the VM's birth events.
	Site int32
	// Req and Granted are the requested and granted (usable) byte
	// counts of an allocation. Granted is the capturing allocator's
	// size-class answer — replay re-requests Req and lets the replayed
	// allocator grant its own.
	Req, Granted int64
	// AllocSeq (free only) is the index, in Events, of the allocation
	// this free returns. It is the back-reference that makes lifetime
	// structure — LIFO vs FIFO death order, cross-thread handoffs,
	// leaks — explicit in the artifact.
	AllocSeq int64
}

// Trace is one recorded allocation stream.
type Trace struct {
	// Name identifies the trace (corpus name, or the run it captured).
	Name string
	// Sites is the allocation-site string table; Sites[0] is always the
	// empty unknown site.
	Sites []string
	// Threads names the capturing run's threads in first-event order
	// ("t0", "t1", ...). Replay spawns one simulated thread per entry.
	Threads []string
	// Events is the stream in capture order (the simulation's
	// deterministic global event order).
	Events []Event
}

// Stats summarize a trace's shape at a glance.
type Stats struct {
	Events, Allocs, Frees int64
	// Leaked counts allocations never freed within the trace.
	Leaked int64
	// CrossThreadFrees counts frees issued by a different thread than
	// the allocating one (producer-consumer handoffs).
	CrossThreadFrees int64
	// ReqBytes and GrantedBytes are cumulative over all allocs.
	ReqBytes, GrantedBytes int64
	// PeakLiveObjects and PeakLiveBytes are the high-water marks of the
	// live set, walking the events in order (bytes counted as Req).
	PeakLiveObjects, PeakLiveBytes int64
}

// Stats computes the trace's summary counters in one pass.
func (tr *Trace) Stats() Stats {
	var s Stats
	s.Events = int64(len(tr.Events))
	var liveObjs, liveBytes int64
	for i := range tr.Events {
		ev := &tr.Events[i]
		if ev.Op == OpAlloc {
			s.Allocs++
			s.ReqBytes += ev.Req
			s.GrantedBytes += ev.Granted
			liveObjs++
			liveBytes += ev.Req
			if liveObjs > s.PeakLiveObjects {
				s.PeakLiveObjects = liveObjs
			}
			if liveBytes > s.PeakLiveBytes {
				s.PeakLiveBytes = liveBytes
			}
		} else {
			s.Frees++
			al := &tr.Events[ev.AllocSeq]
			if al.Thread != ev.Thread {
				s.CrossThreadFrees++
			}
			liveObjs--
			liveBytes -= al.Req
		}
	}
	s.Leaked = s.Allocs - s.Frees
	return s
}

// Validate checks the structural invariants replay and analytics rely
// on: thread and site indices in range, positive request sizes, every
// free back-referencing an earlier alloc event on some thread, and no
// double frees. It returns the first violation found.
func (tr *Trace) Validate() error {
	if len(tr.Sites) == 0 || tr.Sites[0] != "" {
		return fmt.Errorf("alloctrace: Sites[0] must be the empty unknown site")
	}
	freed := make([]bool, len(tr.Events))
	for i := range tr.Events {
		ev := &tr.Events[i]
		if int(ev.Thread) < 0 || int(ev.Thread) >= len(tr.Threads) {
			return fmt.Errorf("alloctrace: event %d: thread %d out of range [0,%d)", i, ev.Thread, len(tr.Threads))
		}
		switch ev.Op {
		case OpAlloc:
			if int(ev.Site) < 0 || int(ev.Site) >= len(tr.Sites) {
				return fmt.Errorf("alloctrace: event %d: site %d out of range [0,%d)", i, ev.Site, len(tr.Sites))
			}
			if ev.Req <= 0 {
				return fmt.Errorf("alloctrace: event %d: non-positive request size %d", i, ev.Req)
			}
			if ev.Granted < ev.Req {
				return fmt.Errorf("alloctrace: event %d: granted %d < requested %d", i, ev.Granted, ev.Req)
			}
		case OpFree:
			if ev.AllocSeq < 0 || ev.AllocSeq >= int64(i) {
				return fmt.Errorf("alloctrace: event %d: free back-reference %d not an earlier event", i, ev.AllocSeq)
			}
			if tr.Events[ev.AllocSeq].Op != OpAlloc {
				return fmt.Errorf("alloctrace: event %d: free back-reference %d is not an alloc", i, ev.AllocSeq)
			}
			if freed[ev.AllocSeq] {
				return fmt.Errorf("alloctrace: event %d: double free of alloc %d", i, ev.AllocSeq)
			}
			freed[ev.AllocSeq] = true
		default:
			return fmt.Errorf("alloctrace: event %d: unknown op %d", i, ev.Op)
		}
	}
	return nil
}
