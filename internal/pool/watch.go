package pool

import (
	"amplify/internal/alloc"
	"amplify/internal/mem"
	"amplify/internal/sim"
)

// Watcher is implemented by tracers that also pull gauge snapshots
// mid-run — footprint, allocator free lists and fragmentation, pool
// retention — rather than only counting events (heapobsv.Timeline).
// Gauges cannot travel on the event stream: they are state, read
// host-side with alloc.Inspector and Runtime.Inspect, which charge no
// simulated work.
type Watcher interface {
	// Watch attaches the run's address space, its underlying allocator
	// and its pool runtime (nil when the run has none).
	Watch(sp *mem.Space, a alloc.Allocator, rt *Runtime)
}

// Watch attaches a run's space, allocator and pool runtime to every
// Watcher in tr, looking through sim.Tee fan-outs. internal/target's
// boot calls it once per run, before the simulation starts.
func Watch(tr sim.Tracer, sp *mem.Space, a alloc.Allocator, rt *Runtime) {
	switch t := tr.(type) {
	case sim.Tee:
		for _, x := range t {
			Watch(x, sp, a, rt)
		}
	case Watcher:
		t.Watch(sp, a, rt)
	}
}
