package alloctrace

import (
	"fmt"

	"amplify/internal/mem"
	"amplify/internal/sim"
)

// Recorder captures a run's allocator request stream as a Trace. It is
// a sim.Tracer: attached as a run's Tracer (workload.TreeConfig /
// ChurnConfig / ReplayConfig, vm.Config, mccrun -record-trace) it
// records every allocator request (EvHeapAlloc/EvHeapFree) with its
// thread, sizes and lifetime back-reference, and the VM's program-level
// births annotate the allocator event that produced the block with its
// MiniCC "fn@line(Class)" site.
//
// Recording is host-side bookkeeping on the simulation's deterministic
// event order: it charges nothing, never changes a makespan, and
// capturing the same run twice yields byte-identical traces at any
// bench -j parallelism.
type Recorder struct {
	// Name is stamped into the captured trace.
	Name string

	sites     map[string]int32
	threadIdx map[int]int32
	liveSeq   map[mem.Ref]int64 // live block -> its alloc event index
	tr        Trace

	// DroppedFrees counts Free events whose block the recorder never
	// saw allocated (an allocation predating attachment); they are
	// omitted so the trace stays structurally valid.
	DroppedFrees int64
}

// NewRecorder returns an empty recorder.
func NewRecorder(name string) *Recorder {
	r := &Recorder{
		Name:      name,
		sites:     map[string]int32{"": 0},
		threadIdx: make(map[int]int32),
		liveSeq:   make(map[mem.Ref]int64),
	}
	r.tr.Name = name
	r.tr.Sites = []string{""}
	return r
}

// Event implements sim.Tracer.
func (r *Recorder) Event(e sim.Event) {
	switch e.Kind {
	case sim.EvHeapAlloc:
		r.liveSeq[mem.Ref(e.Arg2)] = int64(len(r.tr.Events))
		r.tr.Events = append(r.tr.Events, Event{
			Op:      OpAlloc,
			Thread:  r.thread(e.Thread),
			Now:     e.Time,
			Req:     e.Arg3,
			Granted: e.Arg1,
		})
	case sim.EvHeapFree:
		ref := mem.Ref(e.Arg2)
		seq, ok := r.liveSeq[ref]
		if !ok {
			r.DroppedFrees++
			return
		}
		delete(r.liveSeq, ref) // the allocator may recycle the ref
		r.tr.Events = append(r.tr.Events, Event{
			Op:       OpFree,
			Thread:   r.thread(e.Thread),
			Now:      e.Time,
			AllocSeq: seq,
		})
	case sim.EvAlloc, sim.EvBirth:
		// A program-level birth at a known MiniCC site annotates the
		// allocator-level event that produced the block. Births of
		// blocks the recorder never saw allocated are ignored: the
		// trace records allocator requests.
		if seq, ok := r.liveSeq[mem.Ref(e.Arg2)]; ok && e.Site != "" {
			r.tr.Events[seq].Site = r.site(e.Site)
		}
	}
}

// thread interns a simulated thread slot, naming threads "t0", "t1", …
// in first-event order (deterministic: the simulation's event order is).
func (r *Recorder) thread(slot int) int32 {
	if idx, ok := r.threadIdx[slot]; ok {
		return idx
	}
	idx := int32(len(r.tr.Threads))
	r.threadIdx[slot] = idx
	r.tr.Threads = append(r.tr.Threads, fmt.Sprintf("t%d", idx))
	return idx
}

// site interns an allocation-site string.
func (r *Recorder) site(s string) int32 {
	if idx, ok := r.sites[s]; ok {
		return idx
	}
	idx := int32(len(r.tr.Sites))
	r.sites[s] = idx
	r.tr.Sites = append(r.tr.Sites, s)
	return idx
}

// Trace returns the captured trace. The recorder retains ownership;
// call it after the run completes.
func (r *Recorder) Trace() *Trace { return &r.tr }
