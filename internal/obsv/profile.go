package obsv

import (
	"fmt"
	"sort"
	"strings"

	"amplify/internal/sim"
)

// Profiler attributes simulated cycles to MiniCC functions through a
// shadow call stack: it is a sim.Tracer fed by the VM's EvEnter at
// every function call and EvExit at every return, stamped with the
// virtual clock. Attribution is exact: the interval between
// consecutive stamps is charged as self time to the function on top of
// the stack.
//
// The simulator's coroutine scheduler runs one simulated thread at a
// time, so the profiler needs no locking even though it is shared by
// every thread.
type Profiler struct {
	root    *pnode
	threads map[int]*threadProf
}

// pnode is one node of the calling-context tree.
type pnode struct {
	name     string
	parent   *pnode
	children map[string]*pnode
	self     int64 // cycles attributed exactly
}

// threadProf is one simulated thread's shadow stack.
type threadProf struct {
	stack []*pnode
	stamp int64 // virtual time of the last attribution
}

// NewProfiler creates an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{
		root:    &pnode{name: "", children: map[string]*pnode{}},
		threads: map[int]*threadProf{},
	}
}

func (p *Profiler) thread(id int) *threadProf {
	tp := p.threads[id]
	if tp == nil {
		tp = &threadProf{}
		p.threads[id] = tp
	}
	return tp
}

// charge attributes the interval since tp's last stamp to the function
// on top of its stack.
func (p *Profiler) charge(tp *threadProf, now int64) {
	if n := len(tp.stack); n > 0 {
		tp.stack[n-1].self += now - tp.stamp
	}
	tp.stamp = now
}

// Event implements sim.Tracer; kinds other than EvEnter and EvExit are
// ignored.
func (p *Profiler) Event(e sim.Event) {
	switch e.Kind {
	case sim.EvEnter:
		p.enter(e.Thread, e.Detail, e.Time)
	case sim.EvExit:
		p.exit(e.Thread, e.Time)
	}
}

// enter pushes fn onto thread's shadow stack at virtual time now.
func (p *Profiler) enter(thread int, fn string, now int64) {
	tp := p.thread(thread)
	p.charge(tp, now)
	parent := p.root
	if n := len(tp.stack); n > 0 {
		parent = tp.stack[n-1]
	}
	child := parent.children[fn]
	if child == nil {
		child = &pnode{name: fn, parent: parent, children: map[string]*pnode{}}
		parent.children[fn] = child
	}
	tp.stack = append(tp.stack, child)
}

// exit pops thread's shadow stack at virtual time now.
func (p *Profiler) exit(thread int, now int64) {
	tp := p.thread(thread)
	p.charge(tp, now)
	if n := len(tp.stack); n > 0 {
		tp.stack = tp.stack[:n-1]
	}
}

// Finish charges each thread's still-open frames up to the given end
// time (threads that ended inside a function, or main frames never
// exited). Call once after the simulation completes.
func (p *Profiler) Finish(end int64) {
	ids := make([]int, 0, len(p.threads))
	for id := range p.threads {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		tp := p.threads[id]
		p.charge(tp, end)
		tp.stack = tp.stack[:0]
	}
}

// Folded renders the calling-context tree in the folded-stacks format
// flamegraph.pl and pprof understand: one "a;b;c N" line per stack,
// sorted, where N is exact self cycles. Zero-valued stacks are
// omitted.
func (p *Profiler) Folded() string {
	var lines []string
	var walk func(n *pnode, prefix string)
	walk = func(n *pnode, prefix string) {
		path := prefix
		if n != p.root {
			if path != "" {
				path += ";"
			}
			path += n.name
			if n.self > 0 {
				lines = append(lines, fmt.Sprintf("%s %d", path, n.self))
			}
		}
		names := make([]string, 0, len(n.children))
		for name := range n.children {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			walk(n.children[name], path)
		}
	}
	walk(p.root, "")
	return strings.Join(lines, "\n") + "\n"
}
