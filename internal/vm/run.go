package vm

import (
	"fmt"
	"strings"

	"amplify/internal/alloc"
	"amplify/internal/cc"
	"amplify/internal/mem"
	"amplify/internal/pool"
	"amplify/internal/sim"
	"amplify/internal/telemetry"

	_ "amplify/internal/hoard"
	_ "amplify/internal/lfalloc"
	_ "amplify/internal/lkmalloc"
	_ "amplify/internal/ptmalloc"
	_ "amplify/internal/serial"
	_ "amplify/internal/smartheap"
)

// Config parameterizes VM execution; the fields mirror interp.Config.
type Config struct {
	Processors int
	Strategy   string
	Pool       pool.Config
	MaxSteps   int64
	Tracer     sim.Tracer
	// Engine selects the execution engine: "switch" (default, the
	// bytecode dispatch loop) or "closure" (each function compiled to
	// a chain of Go closures — see closure.go). The engines are
	// semantically identical down to simulated makespans and fault
	// sites; only host speed differs.
	Engine string
	// TraceMask restricts which event kinds reach the tracer (zero
	// means all).
	TraceMask sim.Mask
	// Profiler receives function enter/exit hooks. Setting it disables
	// bulk work batching so virtual timestamps are exact at call
	// boundaries.
	Profiler Profiler
	// HeapObserver receives allocator and pool events (alloc.Observer).
	// It is threaded to the underlying allocator and the pool runtime;
	// when it also implements alloc.Watcher (or WatchPools), it is
	// attached to the run's address space, allocator and pool runtime
	// before execution. Observation is host-side only — a non-nil
	// observer never changes makespans.
	HeapObserver alloc.Observer
	// HeapProf receives allocation-site hooks (births and deaths keyed
	// by the compiled Sites table) plus the same Enter/Exit shadow-stack
	// hooks as Profiler. Unlike Profiler it does not disable bulk work
	// batching: site attribution needs call nesting, not exact
	// timestamps, so counts are unaffected.
	HeapProf HeapProfiler
	// NoOpt makes RunSource compile without the peephole pass (see
	// Options.NoOpt). Programs compiled with Compile/CompileOpts carry
	// their own setting and ignore this field.
	NoOpt bool
	// Spans records host-time pipeline spans (parse/sema/compile/
	// simulate) on the given telemetry recorder. Purely host-side
	// bookkeeping: span durations are wall-clock, span attributes are
	// deterministic simulated numbers, and a non-nil recorder never
	// changes makespans (it does not affect bulk work batching).
	Spans *telemetry.Recorder
}

// Profiler observes function activations in virtual time. The VM calls
// Enter on every call and Exit on every return, stamped with the
// simulated clock; obsv.Profiler implements it (the interface lives
// here so the VM does not depend on the exporter package). A nil
// profiler costs one branch per call.
type Profiler interface {
	Enter(thread int, fn string, now int64)
	Exit(thread int, now int64)
}

// HeapProfiler observes allocation sites: every program-level birth
// (new, new[], pool alloc, realloc) and death (delete, delete[], pool
// free, shadow save, realloc) with the "fn@line" site the compiler
// recorded and the shadow call stack maintained via Enter/Exit.
// heapobsv.SiteProfile implements it (the interface lives here so the
// VM does not depend on the exporter package). Pool hits and shadow
// reuses count as births/deaths too: the profile tracks program-level
// object lifetimes, not allocator traffic.
type HeapProfiler interface {
	Enter(thread int, fn string, now int64)
	Exit(thread int, now int64)
	Alloc(thread int, site, class string, bytes int64, ref mem.Ref)
	Free(thread int, ref mem.Ref)
}

func (c Config) withDefaults() Config {
	if c.Processors <= 0 {
		c.Processors = 8
	}
	if c.Strategy == "" {
		c.Strategy = "serial"
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = 50_000_000
	}
	return c
}

// Result mirrors interp.Result for the VM engine.
type Result struct {
	Output       string
	ExitCode     int64
	Makespan     int64
	Sim          sim.Stats
	Alloc        alloc.Stats
	PoolHits     int64
	PoolMisses   int64
	ShadowReuses int64
	Footprint    int64
	// Heap is the allocator's post-run introspection snapshot
	// (fragmentation, free-list state, per-arena occupancy).
	Heap alloc.HeapInfo
	// Pools breaks the pool counters down per class.
	Pools []PoolStat
}

// PoolStat is one class pool's counters.
type PoolStat struct {
	Class    string `json:"class"`
	Size     int64  `json:"size"`
	Hits     int64  `json:"hits"`
	Misses   int64  `json:"misses"`
	Released int64  `json:"released"`
	Steals   int64  `json:"steals"`
	Retained int    `json:"retained"`
}

// RunSource parses, analyzes, compiles and runs a MiniCC program.
func RunSource(src string, cfg Config) (Result, error) {
	sp := cfg.Spans.Start("parse").Set("src_bytes", int64(len(src)))
	prog, err := cc.Parse(src)
	sp.End()
	if err != nil {
		return Result{}, err
	}
	sp = cfg.Spans.Start("sema")
	err = cc.Analyze(prog)
	sp.End()
	if err != nil {
		return Result{}, err
	}
	sp = cfg.Spans.Start("compile")
	compiled, err := CompileOpts(prog, Options{NoOpt: cfg.NoOpt})
	if err != nil {
		sp.End()
		return Result{}, err
	}
	sp.Set("functions", int64(len(compiled.Fns))).End()
	return Run(compiled, cfg)
}

// Run executes a compiled program on the simulated machine.
func Run(p *Program, cfg Config) (res Result, err error) {
	cfg = cfg.withDefaults()
	span := cfg.Spans.Start("simulate")
	defer span.End()
	mainID, ok := p.FuncID["main"]
	if !ok {
		return res, fmt.Errorf("vm: program has no main function")
	}
	e := sim.New(sim.Config{Processors: cfg.Processors, Tracer: cfg.Tracer, TraceMask: cfg.TraceMask})
	sp := mem.NewSpace()
	under, err := alloc.New(cfg.Strategy, e, sp, alloc.Options{Observer: cfg.HeapObserver})
	if err != nil {
		return res, err
	}
	pcfg := cfg.Pool
	pcfg.Observer = cfg.HeapObserver
	if !p.Src.UsesThreads {
		pcfg.SingleThreaded = true
	}
	m := &machine{
		p:        p,
		cfg:      cfg,
		alloc:    under,
		rt:       pool.NewRuntime(e, under, pcfg),
		pools:    make([]*pool.ClassPool, len(p.classes)),
		ics:      make([]methodIC, p.methodSites),
		joinable: e.NewWaitGroup(),
		// Single-threaded programs run one sim thread: no dilation, no
		// migration, an infinite scheduling lease. There, N unit work
		// charges and one N-cycle charge are exactly equivalent, so the
		// interpreter batches charges between observable events (loads,
		// stores, allocator calls). Threaded programs charge per unit —
		// under oversubscription Ctx.Work dilates each charge with an
		// integer division, so batching would perturb makespans. A
		// tracer or profiler also forces per-unit charging to keep
		// event and call-boundary timestamps exact.
		bulk: !p.Src.UsesThreads && cfg.Tracer == nil && cfg.Profiler == nil,
		prof: cfg.Profiler,
		hp:   cfg.HeapProf,
	}
	// call is the engine entry point for every function activation the
	// shared runtime helpers start (constructors, destructors, operator
	// new/delete, spawned threads), so a run stays on one engine
	// throughout.
	switch cfg.Engine {
	case "", "switch":
		m.call = m.exec
	case "closure":
		m.call = m.execClosure
	default:
		return res, fmt.Errorf("vm: unknown engine %q (want \"switch\" or \"closure\")", cfg.Engine)
	}
	if cfg.HeapObserver != nil {
		if w, ok := cfg.HeapObserver.(alloc.Watcher); ok {
			w.Watch(sp, under)
		}
		if w, ok := cfg.HeapObserver.(interface{ WatchPools(*pool.Runtime) }); ok {
			w.WatchPools(m.rt)
		}
	}
	e.Go("main", func(c *sim.Ctx) {
		ret := m.call(c, p.Fns[mainID], mem.Nil, nil)
		m.flushWork(c)
		m.exitCode = ret.i
	})
	defer func() {
		if r := recover(); r != nil {
			ve, ok := r.(*vmError)
			if !ok {
				panic(r)
			}
			err = ve
		}
	}()
	res.Makespan = e.Run()
	res.Output = m.out.String()
	res.ExitCode = m.exitCode
	res.Sim = e.Stats()
	res.Alloc = under.Stats()
	res.ShadowReuses = m.rt.ShadowReuses
	res.Footprint = sp.Footprint()
	if insp, ok := under.(alloc.Inspector); ok {
		res.Heap = insp.Inspect()
	}
	span.Set("makespan", res.Makespan).
		Set("allocs", res.Alloc.Allocs).
		Set("footprint", res.Footprint)
	for _, pl := range m.rt.Pools() {
		res.PoolHits += pl.Hits
		res.PoolMisses += pl.Misses
		res.Pools = append(res.Pools, PoolStat{
			Class:    pl.Class(),
			Size:     pl.Size(),
			Hits:     pl.Hits,
			Misses:   pl.Misses,
			Released: pl.Released,
			Steals:   pl.Steals,
			Retained: pl.FreeCount(),
		})
	}
	return res, nil
}

// vmError is a runtime fault, carrying the faulting site so the message
// reads "... (at fn@pc: op)".
type vmError struct {
	msg string
	fn  string
	pc  int
	op  string
}

func (e *vmError) Error() string {
	if e.fn == "" {
		return "vm: " + e.msg
	}
	return fmt.Sprintf("vm: %s (at %s@%d: %s)", e.msg, e.fn, e.pc, e.op)
}

// fail raises a runtime fault annotated with the machine's current
// function, pc and opcode.
func (m *machine) fail(format string, args ...any) {
	e := &vmError{msg: fmt.Sprintf(format, args...)}
	if m.curFn != nil {
		e.fn = m.curFn.Name
		e.pc = m.curPC
		if m.curPC >= 0 && m.curPC < len(m.curFn.Code) {
			e.op = m.curFn.Code[m.curPC].Op.String()
		}
	}
	panic(e)
}

// value is the VM's runtime value.
type value struct {
	kind byte // 'i', 's', 'r'
	i    int64
	s    string
	ref  mem.Ref
}

func iv(n int64) value   { return value{kind: 'i', i: n} }
func rv(r mem.Ref) value { return value{kind: 'r', ref: r} }
func (v value) truthy() bool {
	return (v.kind == 'i' && v.i != 0) || (v.kind == 'r' && v.ref != mem.Nil)
}
func (v value) text() string {
	switch v.kind {
	case 'i':
		return fmt.Sprintf("%d", v.i)
	case 's':
		return v.s
	case 'r':
		if v.ref == mem.Nil {
			return "null"
		}
		return fmt.Sprintf("0x%x", uint64(v.ref))
	}
	return "?"
}

type objState int8

const (
	stLive objState = iota
	stDestroyed
	stFreed
)

// methodIC is a per-call-site monomorphic inline cache: the last
// receiver class seen at an OpMethod site and the resolved body. Caches
// live on the machine (one array entry per site, indexed by the
// instruction's C operand), so a Program stays immutable and shareable
// across runs. They never need invalidation: classes and vtables are
// fixed at compile time.
type methodIC struct {
	class *classInfo
	fn    *Fn
}

type machine struct {
	p     *Program
	cfg   Config
	alloc alloc.Allocator
	rt    *pool.Runtime
	// pools is indexed by class id (dense, from the Program).
	pools []*pool.ClassPool
	// h maps refs to object/buffer records with no map hashing.
	h handleTable
	// ics holds one inline cache per OpMethod site.
	ics []methodIC
	// Per-opcode last-ref memos (see refCache).
	cLoadField, cStoreField, cIndexLoad, cIndexStore, cMethod, cMisc refCache
	// frames and stacks are free lists of local-slot arrays and operand
	// stacks, recycled across activations. The simulator runs one thread
	// at a time (baton protocol), so sharing them machine-wide is safe.
	frames [][]value
	stacks [][]value
	// argScratch passes one- or two-value argument lists without
	// allocating; exec copies arguments into the callee frame before
	// anything else runs, so the scratch is immediately reusable.
	argScratch [2]value
	joinable   *sim.WaitGroup
	spawned    int
	steps      int64
	// bulk batches work charges (see Run); pending holds charges not
	// yet flushed to the simulator.
	bulk    bool
	pending int64
	// call runs one function activation on the configured engine
	// (m.exec or m.execClosure); the shared runtime helpers go through
	// it so ctors, dtors, operator new/delete and spawned threads all
	// execute on the engine the user selected.
	call func(c *sim.Ctx, fn *Fn, this mem.Ref, args []value) value
	// cframes recycles closure-engine activation records.
	cframes  []*cframe
	prof     Profiler
	hp       HeapProfiler
	out      strings.Builder
	exitCode int64
	// curFn/curPC track the executing site for fault messages.
	curFn *Fn
	curPC int
}

func (m *machine) poolFor(ci *classInfo) *pool.ClassPool {
	pl := m.pools[ci.id]
	if pl == nil {
		pl = m.rt.NewClassPool(ci.decl.Name, ci.decl.Size)
		m.pools[ci.id] = pl
	}
	return pl
}

// privatePoolFor is poolFor in lock-free thread-private mode, used for
// classes the escape analysis proved thread-local (OpPoolAlloc/
// OpPoolFree with B=1). The rewriter routes each class through exactly
// one mode, so the shared table never holds a pool of the wrong kind.
func (m *machine) privatePoolFor(ci *classInfo) *pool.ClassPool {
	pl := m.pools[ci.id]
	if pl == nil {
		pl = m.rt.NewPrivateClassPool(ci.decl.Name, ci.decl.Size)
		m.pools[ci.id] = pl
	}
	return pl
}

// objSlot resolves an object reference through the per-opcode cache,
// then the handle table. Destroyed-but-not-freed objects pass (field
// access on a destroyed object mirrors still-owned memory); freed ones
// fault.
func (m *machine) objSlot(ref mem.Ref, cache *refCache) *hslot {
	if ref == mem.Nil {
		m.fail("null pointer dereference")
	}
	s := cache.slot
	if s == nil || cache.ref != ref {
		s = m.h.lookup(ref)
		if s == nil {
			m.fail("reference 0x%x is not an object", uint64(ref))
		}
		cache.ref, cache.slot = ref, s
	}
	if s.kind != hObj {
		m.fail("reference 0x%x is not an object", uint64(ref))
	}
	if s.state == stFreed {
		m.fail("use after free of %s object", s.class.decl.Name)
	}
	return s
}

// liveSlot is objSlot restricted to fully-constructed objects.
func (m *machine) liveSlot(ref mem.Ref, cache *refCache) *hslot {
	s := m.objSlot(ref, cache)
	if s.state != stLive {
		m.fail("use of destroyed %s object", s.class.decl.Name)
	}
	return s
}

// bufSlot resolves a buffer reference; freed buffers fault.
func (m *machine) bufSlot(ref mem.Ref, cache *refCache) *hslot {
	if ref == mem.Nil {
		m.fail("null buffer dereference")
	}
	s := cache.slot
	if s == nil || cache.ref != ref {
		s = m.h.lookup(ref)
		if s == nil {
			m.fail("reference 0x%x is not a buffer", uint64(ref))
		}
		cache.ref, cache.slot = ref, s
	}
	if s.kind != hBuf {
		m.fail("reference 0x%x is not a buffer", uint64(ref))
	}
	if s.state == stFreed {
		m.fail("use after free of buffer")
	}
	return s
}

// getFrame returns a cleared local-slot array of length n from the free
// list (or fresh storage when the list is empty or too small).
func (m *machine) getFrame(n int) []value {
	if k := len(m.frames) - 1; k >= 0 && cap(m.frames[k]) >= n {
		f := m.frames[k][:n]
		m.frames = m.frames[:k]
		clear(f)
		return f
	}
	return make([]value, n, max(n, 8))
}

func (m *machine) putFrame(f []value) { m.frames = append(m.frames, f) }

func (m *machine) getStack() []value {
	if k := len(m.stacks) - 1; k >= 0 {
		s := m.stacks[k]
		m.stacks = m.stacks[:k]
		return s[:0]
	}
	return make([]value, 0, 16)
}

func (m *machine) putStack(s []value) { m.stacks = append(m.stacks, s) }

// flushWork charges the simulator for the work accumulated since the
// last observable event. Called before every simulator interaction
// (memory traffic, allocator calls, thread operations) so those happen
// at the same virtual time as under per-unit charging.
func (m *machine) flushWork(c *sim.Ctx) {
	if m.pending > 0 {
		c.Work(m.pending)
		m.pending = 0
	}
}

// exec runs one function activation and returns its value. Frames and
// operand stacks come from per-machine free lists, and args may be a
// zero-copy view into the caller's stack or locals: the copy into the
// callee's own slots below happens before any other instruction runs,
// after which the view is dead. OpSpawn is the one caller that must
// copy eagerly instead — its closure outlives the spawning activation.
func (m *machine) exec(c *sim.Ctx, fn *Fn, this mem.Ref, args []value) value {
	prevFn, prevPC := m.curFn, m.curPC
	m.curFn = fn
	if m.prof != nil {
		m.prof.Enter(c.ThreadID(), fn.Name, c.Now())
	}
	if m.hp != nil {
		m.hp.Enter(c.ThreadID(), fn.Name, c.Now())
	}
	slots := m.getFrame(fn.Slots)
	copy(slots, args)
	stack := m.getStack()
	var ret value

loop:
	for pc := 0; pc < len(fn.Code); pc++ {
		m.curPC = pc
		ins := fn.Code[pc]
		m.steps += int64(ins.W)
		if m.steps > m.cfg.MaxSteps {
			m.fail("step limit exceeded (%d); non-terminating program?", m.cfg.MaxSteps)
		}
		if m.bulk {
			m.pending += int64(ins.W)
		} else {
			// One Work call per fused instruction, not one bulk charge:
			// Ctx.Work dilates each charge under oversubscription with
			// an integer division, so Work(2) can round differently
			// than two Work(1)s and optimization would perturb
			// makespans.
			for range int(ins.W) {
				c.Work(1)
			}
		}
		switch ins.Op {
		case OpNop:
		case OpConst:
			if ins.B == 1 {
				stack = append(stack, value{kind: 's', s: m.p.Strs[ins.A]})
			} else {
				stack = append(stack, iv(m.p.Consts[ins.A]))
			}
		case OpNull:
			stack = append(stack, rv(mem.Nil))
		case OpLoadLocal:
			stack = append(stack, slots[ins.A])
		case OpStoreLocal:
			slots[ins.A] = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
		case OpLoadThis:
			stack = append(stack, rv(this))
		case OpLoadField:
			recv := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			s := m.objSlot(recv.ref, &m.cLoadField)
			idx := ins.A
			if ins.B == 1 {
				idx = s.class.fieldOf[ins.A]
				if idx < 0 {
					m.fail("class %s has no field %s", s.class.decl.Name, m.p.Names[ins.A])
				}
			}
			m.flushWork(c)
			c.Read(uint64(recv.ref)+uint64(s.class.offsets[idx]), cc.FieldSize)
			stack = append(stack, s.fields[idx])
		case OpStoreField:
			recv := stack[len(stack)-1]
			v := stack[len(stack)-2]
			stack = stack[:len(stack)-2]
			s := m.objSlot(recv.ref, &m.cStoreField)
			idx := ins.A
			if ins.B == 1 {
				idx = s.class.fieldOf[ins.A]
				if idx < 0 {
					m.fail("class %s has no field %s", s.class.decl.Name, m.p.Names[ins.A])
				}
			}
			m.flushWork(c)
			c.Write(uint64(recv.ref)+uint64(s.class.offsets[idx]), cc.FieldSize)
			s.fields[idx] = v
		case OpIndexLoad:
			i := stack[len(stack)-1]
			bref := stack[len(stack)-2]
			stack = stack[:len(stack)-2]
			s := m.bufSlot(bref.ref, &m.cIndexLoad)
			if i.i < 0 || i.i >= s.length {
				m.fail("index %d out of range [0,%d)", i.i, s.length)
			}
			m.flushWork(c)
			c.Read(uint64(bref.ref)+uint64(i.i)*uint64(s.elemSize), int64(s.elemSize))
			stack = append(stack, iv(s.data[i.i]))
		case OpIndexStore:
			i := stack[len(stack)-1]
			bref := stack[len(stack)-2]
			v := stack[len(stack)-3]
			stack = stack[:len(stack)-3]
			s := m.bufSlot(bref.ref, &m.cIndexStore)
			if i.i < 0 || i.i >= s.length {
				m.fail("index %d out of range [0,%d)", i.i, s.length)
			}
			m.flushWork(c)
			c.Write(uint64(bref.ref)+uint64(i.i)*uint64(s.elemSize), int64(s.elemSize))
			s.data[i.i] = v.i
		case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
			y := stack[len(stack)-1]
			x := stack[len(stack)-2]
			stack = stack[:len(stack)-1]
			stack[len(stack)-1] = m.arith(ins.Op, x, y)
		case OpNeg:
			stack[len(stack)-1] = iv(-stack[len(stack)-1].i)
		case OpNot:
			if stack[len(stack)-1].truthy() {
				stack[len(stack)-1] = iv(0)
			} else {
				stack[len(stack)-1] = iv(1)
			}
		case OpJmp:
			pc = int(ins.A) - 1
		case OpJmpFalse:
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if !v.truthy() {
				pc = int(ins.A) - 1
			}
		case OpJmpTrue:
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if v.truthy() {
				pc = int(ins.A) - 1
			}
		case OpDup:
			stack = append(stack, stack[len(stack)-1])
		case OpPop:
			stack = stack[:len(stack)-1]
		case OpCall:
			n := int(ins.B)
			args := stack[len(stack)-n:]
			stack = stack[:len(stack)-n]
			stack = append(stack, m.exec(c, m.p.Fns[ins.A], mem.Nil, args))
		case OpMethod:
			n := int(ins.B)
			args := stack[len(stack)-n:]
			stack = stack[:len(stack)-n]
			recv := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			s := m.liveSlot(recv.ref, &m.cMethod)
			ic := &m.ics[ins.C]
			callee := ic.fn
			if ic.class != s.class {
				id := s.class.vtable[ins.A]
				if id < 0 {
					m.fail("class %s has no method %s", s.class.decl.Name, m.p.Names[ins.A])
				}
				callee = m.p.Fns[id]
				ic.class, ic.fn = s.class, callee
			}
			stack = append(stack, m.exec(c, callee, recv.ref, args))
		case OpDtor:
			recv := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			s := m.liveSlot(recv.ref, &m.cMisc)
			ci := m.p.classes[ins.A]
			if s.class != ci {
				m.fail("destructor ~%s called on %s object", ci.decl.Name, s.class.decl.Name)
			}
			m.runDtor(c, s, recv.ref)
		case OpNew, OpPlacementNew:
			n := int(ins.B)
			args := stack[len(stack)-n:]
			stack = stack[:len(stack)-n]
			var placement value
			if ins.Op == OpPlacementNew {
				placement = stack[len(stack)-1]
				stack = stack[:len(stack)-1]
			}
			stack = append(stack, m.doNew(c, m.p.classes[ins.A], placement, args, ins.C))
		case OpNewArray:
			n := stack[len(stack)-1]
			stack[len(stack)-1] = m.newBuffer(c, ins.A, n.i, ins.C)
		case OpDelete:
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			m.doDelete(c, v)
		case OpDeleteArray:
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if v.ref == mem.Nil {
				break
			}
			s := m.bufSlot(v.ref, &m.cMisc)
			s.state = stFreed
			m.flushWork(c)
			m.alloc.Free(c, v.ref)
			c.Trace(sim.EvFree, "buffer", int64(v.ref), 0)
			if m.hp != nil {
				m.hp.Free(c.ThreadID(), v.ref)
			}
		case OpRet:
			ret = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			break loop
		case OpRetVoid:
			break loop
		case OpPrint:
			base := len(stack) - int(ins.A)
			for i := base; i < len(stack); i++ {
				if i > base {
					m.out.WriteByte(' ')
				}
				m.out.WriteString(stack[i].text())
			}
			m.out.WriteByte('\n')
			stack = stack[:base]
		case OpSpawn:
			n := int(ins.B)
			args := make([]value, n)
			copy(args, stack[len(stack)-n:])
			stack = stack[:len(stack)-n]
			m.flushWork(c)
			m.spawned++
			m.joinable.Add(1)
			fnID := ins.A
			c.Go(fmt.Sprintf("%s#%d", m.p.Fns[fnID].Name, m.spawned), func(c2 *sim.Ctx) {
				m.exec(c2, m.p.Fns[fnID], mem.Nil, args)
				m.joinable.Done(c2)
			})
		case OpJoin:
			m.flushWork(c)
			m.joinable.Wait(c)
		case OpWork:
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if n.i > 0 {
				m.flushWork(c)
				c.Work(n.i)
			}
		case OpPoolAlloc:
			ci := m.p.classes[ins.A]
			var pl *pool.ClassPool
			if ins.B == 1 {
				pl = m.privatePoolFor(ci)
			} else {
				pl = m.poolFor(ci)
			}
			m.flushWork(c)
			ref, reused := pl.Alloc(c)
			if reused {
				m.h.ensure(ref).state = stLive
			} else {
				m.h.ensure(ref).setObject(ci)
			}
			if m.hp != nil {
				m.hp.Alloc(c.ThreadID(), m.p.Sites[ins.C], ci.decl.Name, ci.decl.Size, ref)
			}
			stack = append(stack, rv(ref))
		case OpPoolFree:
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			ci := m.p.classes[ins.A]
			if v.ref == mem.Nil {
				break
			}
			s := m.objSlot(v.ref, &m.cMisc)
			if s.class != ci {
				m.fail("__pool_free: %s object given to %s pool", s.class.decl.Name, ci.decl.Name)
			}
			m.flushWork(c)
			var fpl *pool.ClassPool
			if ins.B == 1 {
				fpl = m.privatePoolFor(ci)
			} else {
				fpl = m.poolFor(ci)
			}
			if pooled := fpl.Free(c, v.ref); !pooled {
				s.state = stFreed
			}
			if m.hp != nil {
				m.hp.Free(c.ThreadID(), v.ref)
			}
		case OpFrameAlloc:
			// Frame promotion (__frame_alloc): a constructed-pending slot
			// in the frame region. The region is outside the simulated
			// heap, so the heap profiler never sees promoted objects. A
			// reused same-class slot keeps its old object record — like
			// pool reuse, so its shadow pointers stay meaningful and
			// placement new can revive the children.
			ci := m.p.classes[ins.A]
			m.flushWork(c)
			ref := m.rt.Frame().Alloc(c, ci.decl.Size)
			s := m.h.ensure(ref)
			if s.kind != hObj || s.class != ci {
				s.setObject(ci)
			}
			s.state = stDestroyed
			stack = append(stack, rv(ref))
		case OpFrameFree:
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			ci := m.p.classes[ins.A]
			if v.ref == mem.Nil {
				break
			}
			s := m.liveSlot(v.ref, &m.cMisc)
			if s.class != ci {
				m.fail("__frame_free: %s object given to %s frame slot", s.class.decl.Name, ci.decl.Name)
			}
			// runDtor leaves the slot destroyed, not freed: the record's
			// fields wait on the frame free list for the next same-class
			// allocation, exactly like a structure sitting in a pool.
			m.runDtor(c, s, v.ref)
			m.flushWork(c)
			m.rt.Frame().Free(c, ci.decl.Size, v.ref)
		case OpPoolReserve:
			// Pool pre-sizing (__pool_reserve). Reserved structures stay
			// pool-internal until first use; the heap profiler records
			// their birth at the OpPoolAlloc that pops them.
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			ci := m.p.classes[ins.A]
			if n.i > 0 {
				pl := m.poolFor(ci)
				m.flushWork(c)
				for _, ref := range pl.Reserve(c, int(n.i)) {
					s := m.h.ensure(ref)
					s.setObject(ci)
					s.state = stDestroyed
				}
			}
		case OpRealloc:
			n := stack[len(stack)-1]
			ptr := stack[len(stack)-2]
			stack = stack[:len(stack)-1]
			stack[len(stack)-1] = m.doRealloc(c, ptr, n.i, ins.C)
		case OpShadowSave:
			v := stack[len(stack)-1]
			if v.ref == mem.Nil {
				stack[len(stack)-1] = rv(mem.Nil)
				break
			}
			s := m.bufSlot(v.ref, &m.cMisc)
			m.flushWork(c)
			if m.rt.ShadowSave(c, v.ref, s.usable) {
				s.state = stDestroyed
				stack[len(stack)-1] = rv(v.ref)
			} else {
				s.state = stFreed
				stack[len(stack)-1] = rv(mem.Nil)
			}
			// Saved or released, the buffer is dead at the program level;
			// a later realloc reusing the shadow records a fresh birth.
			if m.hp != nil {
				m.hp.Free(c.ThreadID(), v.ref)
			}
		case OpLoadLocalField:
			recv := slots[ins.A]
			s := m.objSlot(recv.ref, &m.cLoadField)
			idx := s.class.fieldOf[ins.B]
			if idx < 0 {
				m.fail("class %s has no field %s", s.class.decl.Name, m.p.Names[ins.B])
			}
			m.flushWork(c)
			c.Read(uint64(recv.ref)+uint64(s.class.offsets[idx]), cc.FieldSize)
			stack = append(stack, s.fields[idx])
		case OpAddConst:
			x := stack[len(stack)-1]
			if x.kind == 'r' {
				m.fail("invalid pointer arithmetic")
			}
			stack[len(stack)-1] = iv(x.i + m.p.Consts[ins.A])
		case OpCallL1:
			stack = append(stack, m.exec(c, m.p.Fns[ins.A], mem.Nil, slots[ins.B:ins.B+1]))
		case OpCallL2:
			m.argScratch[0] = slots[ins.B&0xffff]
			m.argScratch[1] = slots[ins.B>>16]
			stack = append(stack, m.exec(c, m.p.Fns[ins.A], mem.Nil, m.argScratch[:2]))
		default:
			m.fail("unknown opcode %s", ins.Op)
		}
	}
	m.putFrame(slots)
	m.putStack(stack)
	if m.prof != nil {
		m.prof.Exit(c.ThreadID(), c.Now())
	}
	if m.hp != nil {
		m.hp.Exit(c.ThreadID(), c.Now())
	}
	m.curFn, m.curPC = prevFn, prevPC
	return ret
}

func (m *machine) arith(op Op, x, y value) value {
	if x.kind == 'r' || y.kind == 'r' {
		eq := x.ref == y.ref && x.i == y.i && x.kind == y.kind
		switch op {
		case OpEq:
			if eq {
				return iv(1)
			}
			return iv(0)
		case OpNe:
			if eq {
				return iv(0)
			}
			return iv(1)
		}
		m.fail("invalid pointer arithmetic")
	}
	b := func(cond bool) value {
		if cond {
			return iv(1)
		}
		return iv(0)
	}
	switch op {
	case OpAdd:
		return iv(x.i + y.i)
	case OpSub:
		return iv(x.i - y.i)
	case OpMul:
		return iv(x.i * y.i)
	case OpDiv:
		if y.i == 0 {
			m.fail("division by zero")
		}
		return iv(x.i / y.i)
	case OpMod:
		if y.i == 0 {
			m.fail("modulo by zero")
		}
		return iv(x.i % y.i)
	case OpEq:
		return b(x.i == y.i)
	case OpNe:
		return b(x.i != y.i)
	case OpLt:
		return b(x.i < y.i)
	case OpLe:
		return b(x.i <= y.i)
	case OpGt:
		return b(x.i > y.i)
	case OpGe:
		return b(x.i >= y.i)
	}
	m.fail("bad arith op")
	return value{}
}

func (m *machine) runCtor(c *sim.Ctx, ci *classInfo, ref mem.Ref, args []value) {
	if ci.ctor >= 0 {
		m.call(c, m.p.Fns[ci.ctor], ref, args)
	}
}

func (m *machine) runDtor(c *sim.Ctx, s *hslot, ref mem.Ref) {
	if s.class.dtor >= 0 {
		m.call(c, m.p.Fns[s.class.dtor], ref, nil)
	}
	s.state = stDestroyed
}

func (m *machine) doNew(c *sim.Ctx, ci *classInfo, placement value, args []value, site int32) value {
	m.flushWork(c)
	if placement.kind == 'r' && placement.ref != mem.Nil {
		s := m.objSlot(placement.ref, &m.cMisc)
		if s.class != ci {
			m.fail("placement new: shadow holds %s, want %s", s.class.decl.Name, ci.decl.Name)
		}
		if s.state != stLive {
			s.state = stLive
			m.runCtor(c, ci, placement.ref, args)
			return rv(placement.ref)
		}
		// Live shadow: the structure is not identical — reorganize by
		// allocating normally (§3.2).
	}
	var ref mem.Ref
	if ci.opNew >= 0 {
		m.argScratch[0] = iv(ci.decl.Size)
		v := m.call(c, m.p.Fns[ci.opNew], mem.Nil, m.argScratch[:1])
		if v.kind != 'r' || v.ref == mem.Nil {
			m.fail("operator new of %s returned %s", ci.decl.Name, v.text())
		}
		s := m.h.lookup(v.ref)
		if s == nil || s.kind != hObj {
			m.fail("operator new of %s returned a non-object reference", ci.decl.Name)
		}
		s.state = stLive
		ref = v.ref
	} else {
		ref = m.alloc.Alloc(c, ci.decl.Size)
		m.h.ensure(ref).setObject(ci)
		c.Trace(sim.EvAlloc, ci.decl.Name, ci.decl.Size, int64(ref))
		// The operator-new path above allocates inside ci.opNew and
		// records its birth at the inner OpPoolAlloc/OpNewArray site;
		// only the direct path records here.
		if m.hp != nil {
			m.hp.Alloc(c.ThreadID(), m.p.Sites[site], ci.decl.Name, ci.decl.Size, ref)
		}
	}
	m.runCtor(c, ci, ref, args)
	return rv(ref)
}

func (m *machine) doDelete(c *sim.Ctx, v value) {
	m.flushWork(c)
	if v.kind != 'r' {
		m.fail("delete of non-pointer value")
	}
	if v.ref == mem.Nil {
		return
	}
	s := m.liveSlot(v.ref, &m.cMisc)
	m.runDtor(c, s, v.ref)
	if s.class.opDelete >= 0 {
		m.argScratch[0] = rv(v.ref)
		m.call(c, m.p.Fns[s.class.opDelete], v.ref, m.argScratch[:1])
		return
	}
	s.state = stFreed
	m.alloc.Free(c, v.ref)
	c.Trace(sim.EvFree, s.class.decl.Name, int64(v.ref), 0)
	if m.hp != nil {
		m.hp.Free(c.ThreadID(), v.ref)
	}
}

func (m *machine) newBuffer(c *sim.Ctx, elemSize int32, n int64, site int32) value {
	m.flushWork(c)
	if n < 0 {
		m.fail("new array with negative length %d", n)
	}
	size := n * int64(elemSize)
	if size == 0 {
		size = 1
	}
	ref := m.alloc.Alloc(c, size)
	m.h.ensure(ref).setBuffer(elemSize, n, m.alloc.UsableSize(ref))
	c.Trace(sim.EvAlloc, "buffer", size, int64(ref))
	if m.hp != nil {
		m.hp.Alloc(c.ThreadID(), m.p.Sites[site], "", size, ref)
	}
	return rv(ref)
}

func (m *machine) doRealloc(c *sim.Ctx, ptr value, n int64, site int32) value {
	m.flushWork(c)
	if n < 0 {
		m.fail("realloc: negative size")
	}
	// The old buffer dies before ShadowRealloc runs: the call may free
	// its block and then wait for the allocator, and another thread
	// handed the same address meanwhile owns the same handle slot. Only
	// a shadow that comes back as the result revives it. A realloc is a
	// death plus a birth at this site even then — the program-level
	// object is new. The old ref may already be dead (shadow-saved);
	// Free of an unknown ref is a no-op.
	var prev *hslot
	var prevUsable int64
	elemSize := int32(1)
	if ptr.ref != mem.Nil {
		prev = m.bufSlot(ptr.ref, &m.cMisc)
		prevUsable, elemSize = prev.usable, prev.elemSize
		prev.state = stFreed
		if m.hp != nil {
			m.hp.Free(c.ThreadID(), ptr.ref)
		}
	}
	size := n
	if size == 0 {
		size = 1
	}
	ref, usable := m.rt.ShadowRealloc(c, ptr.ref, prevUsable, size)
	if m.hp != nil {
		m.hp.Alloc(c.ThreadID(), m.p.Sites[site], "", size, ref)
	}
	length := n / int64(elemSize)
	if prev != nil && ref == ptr.ref {
		prev.length = length
		if int64(len(prev.data)) < length {
			nd := make([]int64, length)
			copy(nd, prev.data)
			prev.data = nd
		} else {
			prev.data = prev.data[:length]
		}
		prev.state = stLive
		return rv(ref)
	}
	m.h.ensure(ref).setBuffer(elemSize, length, usable)
	return rv(ref)
}
