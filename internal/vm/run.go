package vm

import (
	"fmt"
	"strings"

	"amplify/internal/alloc"
	"amplify/internal/cc"
	"amplify/internal/mem"
	"amplify/internal/pool"
	"amplify/internal/sim"
	"amplify/internal/target"
)

// Config parameterizes VM execution. The VM's event stream carries the
// machine's events plus function enter/exit and program-level births
// and deaths at their compiled "fn@line(Class)" sites.
type Config = target.Config

// Result summarizes a VM run.
type Result = target.Result

// Run executes a compiled program on the simulated machine.
func Run(p *Program, cfg Config) (res Result, err error) {
	mainID, ok := p.FuncID["main"]
	if !ok {
		return res, fmt.Errorf("vm: program has no main function")
	}
	mc, err := target.Boot(cfg, target.Options{ElidePoolLocks: !p.Src.UsesThreads})
	if err != nil {
		return res, err
	}
	m := &machine{
		p:        p,
		maxSteps: mc.MaxSteps,
		alloc:    mc.Alloc,
		rt:       mc.Pools,
		pools:    make([]*pool.ClassPool, len(p.classes)),
		joinable: mc.Engine.NewWaitGroup(),
		// Single-threaded programs run one sim thread: no dilation, no
		// migration, an infinite scheduling lease. There, N unit work
		// charges and one N-cycle charge are exactly equivalent, so bulk
		// mode batches charges between observable events (loads, stores,
		// allocator calls). Threaded programs charge through
		// Ctx.Compute, which is per unit under oversubscription (each
		// charge is dilated with an integer division, so batching
		// would perturb makespans) and runs ahead otherwise. A tracer
		// also forces per-unit charging to keep event and
		// call-boundary timestamps exact.
		bulk: !p.Src.UsesThreads && mc.Tracer == nil,
	}
	mc.Engine.Go("main", func(c *sim.Ctx) {
		ret := m.exec(c, p.Fns[mainID], mem.Nil, nil)
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
	res.Counters = mc.Run()
	res.Output = m.out.String()
	res.ExitCode = m.exitCode
	res.PlacementFallbacks = m.placementFallbacks
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

// value is the VM's runtime value: 24 bytes with no Go pointer, so
// operand stacks, frames and object fields are copied without write
// barriers and never scanned by the GC. A string literal ('s') holds
// its index into Program.Strs in str, which fills the padding after
// kind. Its i and ref stay zero: sema does not type operators or
// returns, so a literal can reach arithmetic, and it must read as 0
// there.
type value struct {
	kind byte // 'i', 's', 'r'
	str  int32
	i    int64
	ref  mem.Ref
}

func iv(n int64) value   { return value{kind: 'i', i: n} }
func rv(r mem.Ref) value { return value{kind: 'r', ref: r} }
func (v value) truthy() bool {
	return (v.kind == 'i' && v.i != 0) || (v.kind == 'r' && v.ref != mem.Nil)
}

// text formats v for print and fault messages; strs is the program's
// string-literal table.
func (v value) text(strs []string) string {
	switch v.kind {
	case 'i':
		return fmt.Sprintf("%d", v.i)
	case 's':
		return strs[v.str]
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

type machine struct {
	p        *Program
	maxSteps int64
	alloc    alloc.Allocator
	rt       *pool.Runtime
	// pools is indexed by class id (dense, from the Program).
	pools []*pool.ClassPool
	// h maps refs to object/buffer records with no map hashing.
	h handleTable
	// Per-opcode last-ref memos (see refCache).
	cLoadField, cStoreField, cIndexLoad, cIndexStore, cMethod, cMisc refCache
	// frames and stacks are free lists of local-slot arrays and operand
	// stacks, recycled across activations. The simulator runs one thread
	// at a time (one coroutine at a time), so sharing them machine-wide
	// is safe.
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
	bulk     bool
	pending  int64
	out      strings.Builder
	exitCode int64
	// placementFallbacks counts placement news whose shadow object was
	// still live (Result.PlacementFallbacks).
	placementFallbacks int64
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

// wrongClass faults the member access ins, whose receiver s is not of
// the class C the access was compiled for. Sema binds every member
// statically, as C++ binds non-virtual members; a receiver's run-time
// class can differ from its static class only when the pointer was
// converted through void*.
func (m *machine) wrongClass(s *hslot, ins Instr) {
	if ins.Op == OpMethod {
		m.fail("method %s called on %s object", m.p.Fns[ins.A].Name, s.class.decl.Name)
	}
	field := ins.A
	if ins.Op == OpLoadLocalField {
		field = ins.B
	}
	cd := m.p.classes[ins.C].decl
	m.fail("field %s::%s accessed on %s object", cd.Name, cd.Fields[field].Name, s.class.decl.Name)
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
	c.Trace(sim.EvEnter, fn.Name, 0, 0)
	slots := m.getFrame(fn.Slots)
	copy(slots, args)
	stack := m.getStack()
	var ret value

loop:
	for pc := 0; pc < len(fn.Code); pc++ {
		m.curPC = pc
		ins := fn.Code[pc]
		m.steps += int64(ins.W)
		if m.steps > m.maxSteps {
			m.fail("step limit exceeded (%d); non-terminating program?", m.maxSteps)
		}
		if m.bulk {
			m.pending += int64(ins.W)
		} else {
			// Compute charges per unit whenever it does not run ahead,
			// never one bulk charge: Ctx.Work dilates each charge under
			// oversubscription with an integer division, so Work(2) can
			// round differently than two Work(1)s and optimization
			// would perturb makespans.
			c.Compute(int64(ins.W))
			if !privateOp[ins.Op] {
				c.Sync()
			}
		}
		switch ins.Op {
		case OpNop:
		case OpConst:
			if ins.B == 1 {
				stack = append(stack, value{kind: 's', str: ins.A})
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
			// Field and element accesses take effect at their start: the
			// value moves before the access is charged, in every mode.
			// ReadAhead and WriteAhead then let a threaded run go on
			// into its next private opcodes instead of yielding (the
			// next shared opcode syncs first). A bulk run's one thread
			// never exhausts its lease, so there they are Read and Write.
			recv := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			s := m.objSlot(recv.ref, &m.cLoadField)
			if s.class.id != ins.C {
				m.wrongClass(s, ins)
			}
			m.flushWork(c)
			stack = append(stack, s.fields[ins.A])
			c.ReadAhead(uint64(recv.ref)+uint64(s.class.offsets[ins.A]), cc.FieldSize)
		case OpStoreField:
			recv := stack[len(stack)-1]
			v := stack[len(stack)-2]
			stack = stack[:len(stack)-2]
			s := m.objSlot(recv.ref, &m.cStoreField)
			if s.class.id != ins.C {
				m.wrongClass(s, ins)
			}
			m.flushWork(c)
			s.fields[ins.A] = v
			c.WriteAhead(uint64(recv.ref)+uint64(s.class.offsets[ins.A]), cc.FieldSize)
		case OpIndexLoad:
			i := stack[len(stack)-1]
			bref := stack[len(stack)-2]
			stack = stack[:len(stack)-2]
			s := m.bufSlot(bref.ref, &m.cIndexLoad)
			if i.i < 0 || i.i >= s.length {
				m.fail("index %d out of range [0,%d)", i.i, s.length)
			}
			m.flushWork(c)
			stack = append(stack, iv(s.data[i.i]))
			c.ReadAhead(uint64(bref.ref)+uint64(i.i)*uint64(s.elemSize), int64(s.elemSize))
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
			s.data[i.i] = v.i
			c.WriteAhead(uint64(bref.ref)+uint64(i.i)*uint64(s.elemSize), int64(s.elemSize))
		case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
			y := stack[len(stack)-1]
			x := stack[len(stack)-2]
			stack = stack[:len(stack)-1]
			if (x.kind == 'r' || y.kind == 'r') && ins.Op != OpEq && ins.Op != OpNe {
				c.Sync() // pointer arithmetic faults
			}
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
			if s.class.id != ins.C {
				m.wrongClass(s, ins)
			}
			stack = append(stack, m.exec(c, m.p.Fns[ins.A], recv.ref, args))
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
				m.out.WriteString(stack[i].text(m.p.Strs))
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
				c2.Sync()
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
			c.Emit(sim.Event{Kind: sim.EvBirth, Detail: ci.decl.Name, Site: m.p.Sites[ins.C], Arg1: ci.decl.Size, Arg2: int64(ref)})
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
			c.Trace(sim.EvDeath, "", int64(v.ref), 0)
		case OpFrameAlloc:
			// Frame promotion (__frame_alloc): a constructed-pending slot
			// in the frame region. The region is outside the simulated
			// heap, so it emits no birth or death events. A
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
			// pool-internal until first use; their birth event is
			// emitted at the OpPoolAlloc that pops them.
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
			c.Trace(sim.EvDeath, "", int64(v.ref), 0)
		case OpLoadLocalField:
			recv := slots[ins.A]
			s := m.objSlot(recv.ref, &m.cLoadField)
			if s.class.id != ins.C {
				m.wrongClass(s, ins)
			}
			m.flushWork(c)
			stack = append(stack, s.fields[ins.B])
			c.ReadAhead(uint64(recv.ref)+uint64(s.class.offsets[ins.B]), cc.FieldSize)
		case OpAddConst:
			x := stack[len(stack)-1]
			if x.kind == 'r' {
				c.Sync()
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
	c.Trace(sim.EvExit, "", 0, 0)
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

// runCtor, runDtor and the operator new/delete calls below sync after
// the nested activation: it may return ahead (its last opcode is
// private), and the helper code after it touches shared state.
func (m *machine) runCtor(c *sim.Ctx, ci *classInfo, ref mem.Ref, args []value) {
	if ci.ctor >= 0 {
		m.exec(c, m.p.Fns[ci.ctor], ref, args)
		c.Sync()
	}
}

func (m *machine) runDtor(c *sim.Ctx, s *hslot, ref mem.Ref) {
	if s.class.dtor >= 0 {
		m.exec(c, m.p.Fns[s.class.dtor], ref, nil)
		c.Sync()
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
		m.placementFallbacks++
	}
	var ref mem.Ref
	if ci.opNew >= 0 {
		m.argScratch[0] = iv(ci.decl.Size)
		v := m.exec(c, m.p.Fns[ci.opNew], mem.Nil, m.argScratch[:1])
		c.Sync()
		if v.kind != 'r' || v.ref == mem.Nil {
			m.fail("operator new of %s returned %s", ci.decl.Name, v.text(m.p.Strs))
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
		// The operator-new path above allocates inside ci.opNew and
		// records its birth at the inner OpPoolAlloc/OpNewArray site;
		// only the direct path records here.
		c.Emit(sim.Event{Kind: sim.EvAlloc, Detail: ci.decl.Name, Site: m.p.Sites[site], Arg1: ci.decl.Size, Arg2: int64(ref)})
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
		m.exec(c, m.p.Fns[s.class.opDelete], v.ref, m.argScratch[:1])
		c.Sync()
		return
	}
	s.state = stFreed
	m.alloc.Free(c, v.ref)
	c.Trace(sim.EvFree, s.class.decl.Name, int64(v.ref), 0)
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
	c.Emit(sim.Event{Kind: sim.EvAlloc, Detail: "buffer", Site: m.p.Sites[site], Arg1: size, Arg2: int64(ref)})
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
		c.Trace(sim.EvDeath, "", int64(ptr.ref), 0)
	}
	size := n
	if size == 0 {
		size = 1
	}
	ref, usable := m.rt.ShadowRealloc(c, ptr.ref, prevUsable, size)
	c.Emit(sim.Event{Kind: sim.EvBirth, Detail: "buffer", Site: m.p.Sites[site], Arg1: size, Arg2: int64(ref)})
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
