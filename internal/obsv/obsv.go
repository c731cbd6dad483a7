// Package obsv is the virtual-time observability layer: it turns the
// simulator's event stream (sim.Tracer), including the VM's function
// enter/exit events, into artifacts a person or a tool can read — Chrome trace_event JSON
// loadable in chrome://tracing or Perfetto, a compact JSONL stream for
// programmatic diffing, pprof-style folded stacks attributing simulated
// cycles to MiniCC functions and a per-lock contention profile. Set
// bundles these with the heap and allocation-trace consumers of one run:
// it composes them, finishes them and writes their artifacts.
//
// The paper's whole argument is diagnostic — BGw's slowdown was only
// understood by attributing time to heap-lock serialization, and
// Amplify's win is explained through free-list hits and shadow-pointer
// reuse. This package makes the reproduction able to *show why* one
// allocator beats another, not just state final makespans.
//
// Everything here runs post-simulation on the host: recording costs
// one branch per event site when disabled, and exporters never touch
// the simulated clock, so traced and untraced runs produce identical
// makespans.
package obsv
