package vm

import (
	"fmt"

	"amplify/internal/cc"
	"amplify/internal/mem"
	"amplify/internal/pool"
	"amplify/internal/sim"
)

// Closure-compiled execution engine (Config.Engine == "closure").
//
// Instead of re-decoding bytecode in a switch dispatch loop, each
// function is compiled once per Program into a chain of Go closures:
// one step per instruction, where executing a step returns a pointer
// to the next step (continuation-passing threaded code). The driver is
// `for s != nil { s = (*s)(fr) }` — no pc, no bounds-checked Code[pc]
// fetch, no switch. Steps capture their operands resolved at closure-
// compile time: constants are pre-built values, callees are *Fn
// pointers, arithmetic is specialized per operator, and every operand-
// stack access uses a fixed index computed by static stack-depth
// inference, so there is no stack pointer to maintain and no append.
//
// The engine shares everything semantic with the switch VM: the same
// machine (handle table, inline caches, per-opcode ref caches, frame/
// stack free lists, allocator and pool runtime), the same peephole/
// superinstruction output, the same per-instruction step accounting
// and bulk work-charging discipline, and the same fault sites
// (m.curPC is stored per step, so vmError fn@pc context is identical).
// Cross-engine identity — results and makespans — is enforced by
// FuzzVMDiff and TestCrossEngineDifferential.

// step is one compiled instruction: execute, return the continuation
// (nil to leave the activation).
type step func(fr *cframe) *step

// closureFn is one function's closure-compiled form.
type closureFn struct {
	steps []step
	// maxDepth is the operand-stack high-water mark from static depth
	// inference; activations allocate exactly this many slots.
	maxDepth int
}

// cframe is one closure-engine activation: the per-call state a step
// needs at run time. Compiled steps are shared by every machine
// running the Program (they capture only immutable compile-time data),
// so all mutable state lives here.
type cframe struct {
	m     *machine
	c     *sim.Ctx
	this  mem.Ref
	slots []value
	stack []value
	ret   value
}

// pre is the per-step prologue, mirroring the switch loop's header
// exactly: record the site for fault context, account the step budget,
// then charge the simulated machine (batched in bulk mode, per unit
// otherwise). It reports whether the fast path handled the charge;
// call sites fall back to preSlow on false. The split keeps pre under
// the inlining budget — every compiled step pays this prologue, so it
// must compile to a handful of straight-line instructions.
func (fr *cframe) pre(pc int, w int64) bool {
	m := fr.m
	m.curPC = pc
	m.steps += w
	if m.steps > m.cfg.MaxSteps || !m.bulk {
		return false
	}
	m.pending += w
	return true
}

func (fr *cframe) preSlow(w int64) {
	m := fr.m
	if m.steps > m.cfg.MaxSteps {
		m.fail("step limit exceeded (%d); non-terminating program?", m.cfg.MaxSteps)
	}
	// One Work call per fused work unit — see the switch loop for why
	// bulk batching is off here (dilation rounds per charge).
	for range w {
		fr.c.Work(1)
	}
}

// execClosure runs one function activation on the closure engine. It
// is the closure-mode value of machine.call, so constructors,
// destructors, operator new/delete and spawned threads all stay on
// this engine. The activation protocol (profiler hooks, frame/stack
// recycling, curFn bookkeeping) mirrors machine.exec.
func (m *machine) execClosure(c *sim.Ctx, fn *Fn, this mem.Ref, args []value) value {
	cf := m.p.closures(fn)
	if cf == nil {
		// Depth inference failed for this program (cannot happen for
		// compiler output; defensive): run on the switch engine.
		return m.exec(c, fn, this, args)
	}
	prevFn, prevPC := m.curFn, m.curPC
	m.curFn = fn
	if m.prof != nil {
		m.prof.Enter(c.ThreadID(), fn.Name, c.Now())
	}
	if m.hp != nil {
		m.hp.Enter(c.ThreadID(), fn.Name, c.Now())
	}
	fr := m.getCFrame()
	fr.c = c
	fr.this = this
	// One pooled buffer backs both the local slots and the operand
	// stack: a single free-list round-trip per activation. Stack slots
	// are written before they are read (depth inference guarantees
	// it), so only the non-argument locals need zeroing.
	buf := m.getStackN(fn.Slots + cf.maxDepth)
	n := copy(buf, args)
	clear(buf[n:fn.Slots])
	fr.slots = buf[:fn.Slots:fn.Slots]
	fr.stack = buf[fn.Slots:]
	fr.ret = value{}

	if len(cf.steps) > 0 {
		for s := &cf.steps[0]; s != nil; {
			s = (*s)(fr)
		}
	}

	ret := fr.ret
	m.putStack(buf)
	m.putCFrame(fr)
	if m.prof != nil {
		m.prof.Exit(c.ThreadID(), c.Now())
	}
	if m.hp != nil {
		m.hp.Exit(c.ThreadID(), c.Now())
	}
	m.curFn, m.curPC = prevFn, prevPC
	return ret
}

// getCFrame / putCFrame recycle activation records the same way
// getFrame recycles local-slot arrays. The simulator runs one thread
// at a time (one coroutine at a time), so a machine-wide free list is
// safe.
func (m *machine) getCFrame() *cframe {
	if k := len(m.cframes) - 1; k >= 0 {
		fr := m.cframes[k]
		m.cframes = m.cframes[:k]
		return fr
	}
	return &cframe{m: m}
}

func (m *machine) putCFrame(fr *cframe) {
	fr.c = nil
	fr.slots = nil
	fr.stack = nil
	m.cframes = append(m.cframes, fr)
}

// getStackN returns an uncleared operand stack of exactly n slots from
// the stack free list. Unlike getStack it has a fixed length: the
// closure engine indexes it at statically inferred depths and never
// appends. Stale values above the live depth are unobservable.
func (m *machine) getStackN(n int) []value {
	if k := len(m.stacks) - 1; k >= 0 && cap(m.stacks[k]) >= n {
		s := m.stacks[k][:n]
		m.stacks = m.stacks[:k]
		return s
	}
	return make([]value, n, max(n, 16))
}

// closures returns fn's closure-compiled form, building the whole
// program's on first use. The compiled steps capture only immutable
// Program data, so they are shared across machines; sync.Once makes
// the lazy build safe under the host-parallel harness.
func (p *Program) closures(fn *Fn) *closureFn {
	p.closureOnce.Do(func() {
		p.closure = make([]closureFn, len(p.Fns))
		for i, f := range p.Fns {
			steps, maxDepth, ok := p.compileClosure(f)
			if !ok {
				p.closure = nil
				return
			}
			p.closure[i] = closureFn{steps: steps, maxDepth: maxDepth}
		}
	})
	if p.closure == nil {
		return nil
	}
	return &p.closure[fn.id]
}

// stackShape returns how many operand slots ins reads below the
// current depth and the net depth change.
func stackShape(ins Instr) (require, delta int) {
	switch ins.Op {
	case OpNop, OpJmp, OpRetVoid, OpJoin:
		return 0, 0
	case OpConst, OpNull, OpLoadThis, OpLoadLocal, OpLoadLocalField,
		OpPoolAlloc, OpFrameAlloc, OpCallL1, OpCallL2:
		return 0, 1
	case OpStoreLocal, OpPop, OpJmpFalse, OpJmpTrue, OpDelete,
		OpDeleteArray, OpWork, OpPoolFree, OpFrameFree, OpPoolReserve,
		OpDtor, OpRet, OpShadowSave:
		return 1, -1
	case OpLoadField, OpAddConst, OpNeg, OpNot, OpNewArray:
		return 1, 0
	case OpDup:
		return 1, 1
	case OpStoreField:
		return 2, -2
	case OpIndexLoad, OpRealloc:
		return 2, -1
	case OpIndexStore:
		return 3, -3
	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return 2, -1
	case OpCall:
		return int(ins.B), 1 - int(ins.B)
	case OpNew:
		return int(ins.B), 1 - int(ins.B)
	case OpMethod, OpPlacementNew:
		return int(ins.B) + 1, -int(ins.B)
	case OpSpawn:
		return int(ins.B), -int(ins.B)
	case OpPrint:
		return int(ins.A), -int(ins.A)
	}
	return 0, 0
}

// inferDepths computes the operand-stack depth at every reachable pc
// by forward propagation. Compiler output is depth-consistent at merge
// points (including the Dup/JmpFalse/Pop short-circuit idiom), so a
// conflict or underflow reports failure and the program falls back to
// the switch engine. Unreachable instructions keep depth -1.
func inferDepths(code []Instr) (depth []int, maxDepth int, ok bool) {
	depth = make([]int, len(code))
	for i := range depth {
		depth[i] = -1
	}
	if len(code) == 0 {
		return depth, 0, true
	}
	type item struct{ pc, d int }
	work := []item{{0, 0}}
	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		pc, d := it.pc, it.d
		for pc < len(code) {
			if depth[pc] != -1 {
				if depth[pc] != d {
					return nil, 0, false
				}
				break
			}
			depth[pc] = d
			ins := code[pc]
			require, delta := stackShape(ins)
			if d < require {
				return nil, 0, false
			}
			if top := d + max(delta, 0); top > maxDepth {
				maxDepth = top
			}
			d += delta
			switch ins.Op {
			case OpJmp:
				pc = int(ins.A)
				continue
			case OpJmpFalse, OpJmpTrue:
				if int(ins.A) < len(code) {
					work = append(work, item{int(ins.A), d})
				}
			case OpRet, OpRetVoid:
				pc = len(code)
				continue
			}
			pc++
		}
	}
	return depth, maxDepth, true
}

// compileClosure translates one function's bytecode to threaded steps.
// Every captured variable is immutable program data; all run-time
// state arrives through the cframe.
func (p *Program) compileClosure(fn *Fn) ([]step, int, bool) {
	code := fn.Code
	depth, maxDepth, ok := inferDepths(code)
	if !ok {
		return nil, 0, false
	}
	steps := make([]step, len(code))
	// at returns the continuation for pc i; falling off the end leaves
	// the activation, like the switch loop's pc < len(Code) condition.
	at := func(i int) *step {
		if i >= 0 && i < len(steps) {
			return &steps[i]
		}
		return nil
	}

	for pci := range code {
		pc := pci
		ins := code[pc]
		w := int64(ins.W)
		d := depth[pc]
		if d == -1 {
			// Unreachable; keep a defensive trap.
			steps[pc] = func(fr *cframe) *step {
				fr.m.curPC = pc
				fr.m.fail("unreachable instruction")
				return nil
			}
			continue
		}
		next := at(pc + 1)
		switch ins.Op {
		case OpNop:
			steps[pc] = func(fr *cframe) *step {
				if !fr.pre(pc, w) {
					fr.preSlow(w)
				}
				return next
			}
		case OpConst:
			var k value
			if ins.B == 1 {
				k = value{kind: 's', s: p.Strs[ins.A]}
			} else {
				k = iv(p.Consts[ins.A])
			}
			steps[pc] = func(fr *cframe) *step {
				if !fr.pre(pc, w) {
					fr.preSlow(w)
				}
				fr.stack[d] = k
				return next
			}
		case OpNull:
			steps[pc] = func(fr *cframe) *step {
				if !fr.pre(pc, w) {
					fr.preSlow(w)
				}
				fr.stack[d] = rv(mem.Nil)
				return next
			}
		case OpLoadLocal:
			a := int(ins.A)
			steps[pc] = func(fr *cframe) *step {
				if !fr.pre(pc, w) {
					fr.preSlow(w)
				}
				fr.stack[d] = fr.slots[a]
				return next
			}
		case OpStoreLocal:
			a := int(ins.A)
			steps[pc] = func(fr *cframe) *step {
				if !fr.pre(pc, w) {
					fr.preSlow(w)
				}
				fr.slots[a] = fr.stack[d-1]
				return next
			}
		case OpLoadThis:
			steps[pc] = func(fr *cframe) *step {
				if !fr.pre(pc, w) {
					fr.preSlow(w)
				}
				fr.stack[d] = rv(fr.this)
				return next
			}
		case OpLoadField:
			steps[pc] = p.fieldLoadStep(pc, w, d, ins, next)
		case OpStoreField:
			steps[pc] = p.fieldStoreStep(pc, w, d, ins, next)
		case OpIndexLoad:
			steps[pc] = func(fr *cframe) *step {
				if !fr.pre(pc, w) {
					fr.preSlow(w)
				}
				m := fr.m
				i := fr.stack[d-1]
				bref := fr.stack[d-2]
				s := m.bufSlot(bref.ref, &m.cIndexLoad)
				if i.i < 0 || i.i >= s.length {
					m.fail("index %d out of range [0,%d)", i.i, s.length)
				}
				m.flushWork(fr.c)
				fr.c.Read(uint64(bref.ref)+uint64(i.i)*uint64(s.elemSize), int64(s.elemSize))
				fr.stack[d-2] = iv(s.data[i.i])
				return next
			}
		case OpIndexStore:
			steps[pc] = func(fr *cframe) *step {
				if !fr.pre(pc, w) {
					fr.preSlow(w)
				}
				m := fr.m
				i := fr.stack[d-1]
				bref := fr.stack[d-2]
				v := fr.stack[d-3]
				s := m.bufSlot(bref.ref, &m.cIndexStore)
				if i.i < 0 || i.i >= s.length {
					m.fail("index %d out of range [0,%d)", i.i, s.length)
				}
				m.flushWork(fr.c)
				fr.c.Write(uint64(bref.ref)+uint64(i.i)*uint64(s.elemSize), int64(s.elemSize))
				s.data[i.i] = v.i
				return next
			}
		case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
			steps[pc] = arithStep(pc, w, d, ins.Op, next)
		case OpNeg:
			steps[pc] = func(fr *cframe) *step {
				if !fr.pre(pc, w) {
					fr.preSlow(w)
				}
				fr.stack[d-1] = iv(-fr.stack[d-1].i)
				return next
			}
		case OpNot:
			steps[pc] = func(fr *cframe) *step {
				if !fr.pre(pc, w) {
					fr.preSlow(w)
				}
				if fr.stack[d-1].truthy() {
					fr.stack[d-1] = iv(0)
				} else {
					fr.stack[d-1] = iv(1)
				}
				return next
			}
		case OpJmp:
			target := at(int(ins.A))
			steps[pc] = func(fr *cframe) *step {
				if !fr.pre(pc, w) {
					fr.preSlow(w)
				}
				return target
			}
		case OpJmpFalse:
			target := at(int(ins.A))
			steps[pc] = func(fr *cframe) *step {
				if !fr.pre(pc, w) {
					fr.preSlow(w)
				}
				if !fr.stack[d-1].truthy() {
					return target
				}
				return next
			}
		case OpJmpTrue:
			target := at(int(ins.A))
			steps[pc] = func(fr *cframe) *step {
				if !fr.pre(pc, w) {
					fr.preSlow(w)
				}
				if fr.stack[d-1].truthy() {
					return target
				}
				return next
			}
		case OpDup:
			steps[pc] = func(fr *cframe) *step {
				if !fr.pre(pc, w) {
					fr.preSlow(w)
				}
				fr.stack[d] = fr.stack[d-1]
				return next
			}
		case OpPop:
			steps[pc] = func(fr *cframe) *step {
				if !fr.pre(pc, w) {
					fr.preSlow(w)
				}
				return next
			}
		case OpCall:
			n := int(ins.B)
			callee := p.Fns[ins.A]
			steps[pc] = func(fr *cframe) *step {
				if !fr.pre(pc, w) {
					fr.preSlow(w)
				}
				fr.stack[d-n] = fr.m.execClosure(fr.c, callee, mem.Nil, fr.stack[d-n:d])
				return next
			}
		case OpMethod:
			steps[pc] = p.methodStep(pc, w, d, ins, next)
		case OpDtor:
			ci := p.classes[ins.A]
			steps[pc] = func(fr *cframe) *step {
				if !fr.pre(pc, w) {
					fr.preSlow(w)
				}
				m := fr.m
				recv := fr.stack[d-1]
				s := m.liveSlot(recv.ref, &m.cMisc)
				if s.class != ci {
					m.fail("destructor ~%s called on %s object", ci.decl.Name, s.class.decl.Name)
				}
				m.runDtor(fr.c, s, recv.ref)
				return next
			}
		case OpNew:
			n := int(ins.B)
			ci := p.classes[ins.A]
			site := ins.C
			steps[pc] = func(fr *cframe) *step {
				if !fr.pre(pc, w) {
					fr.preSlow(w)
				}
				fr.stack[d-n] = fr.m.doNew(fr.c, ci, value{}, fr.stack[d-n:d], site)
				return next
			}
		case OpPlacementNew:
			n := int(ins.B)
			ci := p.classes[ins.A]
			site := ins.C
			steps[pc] = func(fr *cframe) *step {
				if !fr.pre(pc, w) {
					fr.preSlow(w)
				}
				fr.stack[d-n-1] = fr.m.doNew(fr.c, ci, fr.stack[d-n-1], fr.stack[d-n:d], site)
				return next
			}
		case OpNewArray:
			elem := ins.A
			site := ins.C
			steps[pc] = func(fr *cframe) *step {
				if !fr.pre(pc, w) {
					fr.preSlow(w)
				}
				fr.stack[d-1] = fr.m.newBuffer(fr.c, elem, fr.stack[d-1].i, site)
				return next
			}
		case OpDelete:
			steps[pc] = func(fr *cframe) *step {
				if !fr.pre(pc, w) {
					fr.preSlow(w)
				}
				fr.m.doDelete(fr.c, fr.stack[d-1])
				return next
			}
		case OpDeleteArray:
			steps[pc] = func(fr *cframe) *step {
				if !fr.pre(pc, w) {
					fr.preSlow(w)
				}
				m := fr.m
				v := fr.stack[d-1]
				if v.ref == mem.Nil {
					return next
				}
				s := m.bufSlot(v.ref, &m.cMisc)
				s.state = stFreed
				m.flushWork(fr.c)
				m.alloc.Free(fr.c, v.ref)
				fr.c.Trace(sim.EvFree, "buffer", int64(v.ref), 0)
				if m.hp != nil {
					m.hp.Free(fr.c.ThreadID(), v.ref)
				}
				return next
			}
		case OpRet:
			steps[pc] = func(fr *cframe) *step {
				if !fr.pre(pc, w) {
					fr.preSlow(w)
				}
				fr.ret = fr.stack[d-1]
				return nil
			}
		case OpRetVoid:
			steps[pc] = func(fr *cframe) *step {
				if !fr.pre(pc, w) {
					fr.preSlow(w)
				}
				return nil
			}
		case OpPrint:
			n := int(ins.A)
			steps[pc] = func(fr *cframe) *step {
				if !fr.pre(pc, w) {
					fr.preSlow(w)
				}
				m := fr.m
				for i := d - n; i < d; i++ {
					if i > d-n {
						m.out.WriteByte(' ')
					}
					m.out.WriteString(fr.stack[i].text())
				}
				m.out.WriteByte('\n')
				return next
			}
		case OpSpawn:
			n := int(ins.B)
			callee := p.Fns[ins.A]
			steps[pc] = func(fr *cframe) *step {
				if !fr.pre(pc, w) {
					fr.preSlow(w)
				}
				m := fr.m
				args := make([]value, n)
				copy(args, fr.stack[d-n:d])
				m.flushWork(fr.c)
				m.spawned++
				m.joinable.Add(1)
				fr.c.Go(fmt.Sprintf("%s#%d", callee.Name, m.spawned), func(c2 *sim.Ctx) {
					m.execClosure(c2, callee, mem.Nil, args)
					m.joinable.Done(c2)
				})
				return next
			}
		case OpJoin:
			steps[pc] = func(fr *cframe) *step {
				if !fr.pre(pc, w) {
					fr.preSlow(w)
				}
				fr.m.flushWork(fr.c)
				fr.m.joinable.Wait(fr.c)
				return next
			}
		case OpWork:
			steps[pc] = func(fr *cframe) *step {
				if !fr.pre(pc, w) {
					fr.preSlow(w)
				}
				if n := fr.stack[d-1]; n.i > 0 {
					fr.m.flushWork(fr.c)
					fr.c.Work(n.i)
				}
				return next
			}
		case OpPoolAlloc:
			ci := p.classes[ins.A]
			private := ins.B == 1
			site := ins.C
			steps[pc] = func(fr *cframe) *step {
				if !fr.pre(pc, w) {
					fr.preSlow(w)
				}
				m := fr.m
				var pl *pool.ClassPool
				if private {
					pl = m.privatePoolFor(ci)
				} else {
					pl = m.poolFor(ci)
				}
				m.flushWork(fr.c)
				ref, reused := pl.Alloc(fr.c)
				if reused {
					m.h.ensure(ref).state = stLive
				} else {
					m.h.ensure(ref).setObject(ci)
				}
				if m.hp != nil {
					m.hp.Alloc(fr.c.ThreadID(), m.p.Sites[site], ci.decl.Name, ci.decl.Size, ref)
				}
				fr.stack[d] = rv(ref)
				return next
			}
		case OpPoolFree:
			ci := p.classes[ins.A]
			private := ins.B == 1
			steps[pc] = func(fr *cframe) *step {
				if !fr.pre(pc, w) {
					fr.preSlow(w)
				}
				m := fr.m
				v := fr.stack[d-1]
				if v.ref == mem.Nil {
					return next
				}
				s := m.objSlot(v.ref, &m.cMisc)
				if s.class != ci {
					m.fail("__pool_free: %s object given to %s pool", s.class.decl.Name, ci.decl.Name)
				}
				m.flushWork(fr.c)
				var fpl *pool.ClassPool
				if private {
					fpl = m.privatePoolFor(ci)
				} else {
					fpl = m.poolFor(ci)
				}
				if pooled := fpl.Free(fr.c, v.ref); !pooled {
					s.state = stFreed
				}
				if m.hp != nil {
					m.hp.Free(fr.c.ThreadID(), v.ref)
				}
				return next
			}
		case OpFrameAlloc:
			ci := p.classes[ins.A]
			steps[pc] = func(fr *cframe) *step {
				if !fr.pre(pc, w) {
					fr.preSlow(w)
				}
				m := fr.m
				m.flushWork(fr.c)
				ref := m.rt.Frame().Alloc(fr.c, ci.decl.Size)
				s := m.h.ensure(ref)
				if s.kind != hObj || s.class != ci {
					s.setObject(ci)
				}
				s.state = stDestroyed
				fr.stack[d] = rv(ref)
				return next
			}
		case OpFrameFree:
			ci := p.classes[ins.A]
			steps[pc] = func(fr *cframe) *step {
				if !fr.pre(pc, w) {
					fr.preSlow(w)
				}
				m := fr.m
				v := fr.stack[d-1]
				if v.ref == mem.Nil {
					return next
				}
				s := m.liveSlot(v.ref, &m.cMisc)
				if s.class != ci {
					m.fail("__frame_free: %s object given to %s frame slot", s.class.decl.Name, ci.decl.Name)
				}
				m.runDtor(fr.c, s, v.ref)
				m.flushWork(fr.c)
				m.rt.Frame().Free(fr.c, ci.decl.Size, v.ref)
				return next
			}
		case OpPoolReserve:
			ci := p.classes[ins.A]
			steps[pc] = func(fr *cframe) *step {
				if !fr.pre(pc, w) {
					fr.preSlow(w)
				}
				m := fr.m
				n := fr.stack[d-1]
				if n.i > 0 {
					pl := m.poolFor(ci)
					m.flushWork(fr.c)
					for _, ref := range pl.Reserve(fr.c, int(n.i)) {
						s := m.h.ensure(ref)
						s.setObject(ci)
						s.state = stDestroyed
					}
				}
				return next
			}
		case OpRealloc:
			site := ins.C
			steps[pc] = func(fr *cframe) *step {
				if !fr.pre(pc, w) {
					fr.preSlow(w)
				}
				fr.stack[d-2] = fr.m.doRealloc(fr.c, fr.stack[d-2], fr.stack[d-1].i, site)
				return next
			}
		case OpShadowSave:
			steps[pc] = func(fr *cframe) *step {
				if !fr.pre(pc, w) {
					fr.preSlow(w)
				}
				m := fr.m
				v := fr.stack[d-1]
				if v.ref == mem.Nil {
					fr.stack[d-1] = rv(mem.Nil)
					return next
				}
				s := m.bufSlot(v.ref, &m.cMisc)
				m.flushWork(fr.c)
				if m.rt.ShadowSave(fr.c, v.ref, s.usable) {
					s.state = stDestroyed
					fr.stack[d-1] = rv(v.ref)
				} else {
					s.state = stFreed
					fr.stack[d-1] = rv(mem.Nil)
				}
				if m.hp != nil {
					m.hp.Free(fr.c.ThreadID(), v.ref)
				}
				return next
			}
		case OpLoadLocalField:
			a := int(ins.A)
			nameID := ins.B
			steps[pc] = func(fr *cframe) *step {
				if !fr.pre(pc, w) {
					fr.preSlow(w)
				}
				m := fr.m
				recv := fr.slots[a]
				s := m.objSlot(recv.ref, &m.cLoadField)
				idx := s.class.fieldOf[nameID]
				if idx < 0 {
					m.fail("class %s has no field %s", s.class.decl.Name, m.p.Names[nameID])
				}
				m.flushWork(fr.c)
				fr.c.Read(uint64(recv.ref)+uint64(s.class.offsets[idx]), cc.FieldSize)
				fr.stack[d] = s.fields[idx]
				return next
			}
		case OpAddConst:
			k := p.Consts[ins.A]
			steps[pc] = func(fr *cframe) *step {
				if !fr.pre(pc, w) {
					fr.preSlow(w)
				}
				x := fr.stack[d-1]
				if x.kind == 'r' {
					fr.m.fail("invalid pointer arithmetic")
				}
				fr.stack[d-1] = iv(x.i + k)
				return next
			}
		case OpCallL1:
			callee := p.Fns[ins.A]
			b := int(ins.B)
			steps[pc] = func(fr *cframe) *step {
				if !fr.pre(pc, w) {
					fr.preSlow(w)
				}
				fr.stack[d] = fr.m.execClosure(fr.c, callee, mem.Nil, fr.slots[b:b+1])
				return next
			}
		case OpCallL2:
			callee := p.Fns[ins.A]
			b0, b1 := int(ins.B&0xffff), int(ins.B>>16)
			steps[pc] = func(fr *cframe) *step {
				if !fr.pre(pc, w) {
					fr.preSlow(w)
				}
				m := fr.m
				m.argScratch[0] = fr.slots[b0]
				m.argScratch[1] = fr.slots[b1]
				fr.stack[d] = m.execClosure(fr.c, callee, mem.Nil, m.argScratch[:2])
				return next
			}
		default:
			op := ins.Op
			steps[pc] = func(fr *cframe) *step {
				if !fr.pre(pc, w) {
					fr.preSlow(w)
				}
				fr.m.fail("unknown opcode %s", op)
				return nil
			}
		}
	}
	p.fuseSteps(code, depth, steps)
	return steps, maxDepth, true
}

// fieldLoadStep compiles OpLoadField, splitting the static-index and
// by-name variants at compile time instead of branching per execution.
func (p *Program) fieldLoadStep(pc int, w int64, d int, ins Instr, next *step) step {
	if ins.B == 1 {
		nameID := ins.A
		return func(fr *cframe) *step {
			if !fr.pre(pc, w) {
				fr.preSlow(w)
			}
			m := fr.m
			recv := fr.stack[d-1]
			s := m.objSlot(recv.ref, &m.cLoadField)
			idx := s.class.fieldOf[nameID]
			if idx < 0 {
				m.fail("class %s has no field %s", s.class.decl.Name, m.p.Names[nameID])
			}
			m.flushWork(fr.c)
			fr.c.Read(uint64(recv.ref)+uint64(s.class.offsets[idx]), cc.FieldSize)
			fr.stack[d-1] = s.fields[idx]
			return next
		}
	}
	idx := ins.A
	return func(fr *cframe) *step {
		if !fr.pre(pc, w) {
			fr.preSlow(w)
		}
		m := fr.m
		recv := fr.stack[d-1]
		s := m.objSlot(recv.ref, &m.cLoadField)
		m.flushWork(fr.c)
		fr.c.Read(uint64(recv.ref)+uint64(s.class.offsets[idx]), cc.FieldSize)
		fr.stack[d-1] = s.fields[idx]
		return next
	}
}

// fieldStoreStep compiles OpStoreField with the same static/by-name
// split as fieldLoadStep.
func (p *Program) fieldStoreStep(pc int, w int64, d int, ins Instr, next *step) step {
	if ins.B == 1 {
		nameID := ins.A
		return func(fr *cframe) *step {
			if !fr.pre(pc, w) {
				fr.preSlow(w)
			}
			m := fr.m
			recv := fr.stack[d-1]
			v := fr.stack[d-2]
			s := m.objSlot(recv.ref, &m.cStoreField)
			idx := s.class.fieldOf[nameID]
			if idx < 0 {
				m.fail("class %s has no field %s", s.class.decl.Name, m.p.Names[nameID])
			}
			m.flushWork(fr.c)
			fr.c.Write(uint64(recv.ref)+uint64(s.class.offsets[idx]), cc.FieldSize)
			s.fields[idx] = v
			return next
		}
	}
	idx := ins.A
	return func(fr *cframe) *step {
		if !fr.pre(pc, w) {
			fr.preSlow(w)
		}
		m := fr.m
		recv := fr.stack[d-1]
		v := fr.stack[d-2]
		s := m.objSlot(recv.ref, &m.cStoreField)
		m.flushWork(fr.c)
		fr.c.Write(uint64(recv.ref)+uint64(s.class.offsets[idx]), cc.FieldSize)
		s.fields[idx] = v
		return next
	}
}

// methodStep compiles OpMethod: the per-site monomorphic inline cache
// index is captured, the receiver check and vtable fallback mirror the
// switch engine exactly.
func (p *Program) methodStep(pc int, w int64, d int, ins Instr, next *step) step {
	n := int(ins.B)
	nameID := ins.A
	icIdx := ins.C
	return func(fr *cframe) *step {
		if !fr.pre(pc, w) {
			fr.preSlow(w)
		}
		m := fr.m
		recv := fr.stack[d-n-1]
		s := m.liveSlot(recv.ref, &m.cMethod)
		ic := &m.ics[icIdx]
		callee := ic.fn
		if ic.class != s.class {
			id := s.class.vtable[nameID]
			if id < 0 {
				m.fail("class %s has no method %s", s.class.decl.Name, m.p.Names[nameID])
			}
			callee = m.p.Fns[id]
			ic.class, ic.fn = s.class, callee
		}
		fr.stack[d-n-1] = m.execClosure(fr.c, callee, recv.ref, fr.stack[d-n:d])
		return next
	}
}

// arithStep specializes binary arithmetic per operator at closure-
// compile time: the integer fast path is inlined (the operator switch
// in machine.arith is gone), references fall back to m.arith which
// preserves pointer-comparison semantics and fault messages.
func arithStep(pc int, w int64, d int, op Op, next *step) step {
	switch op {
	case OpAdd:
		return func(fr *cframe) *step {
			if !fr.pre(pc, w) {
				fr.preSlow(w)
			}
			x, y := fr.stack[d-2], fr.stack[d-1]
			if x.kind != 'r' && y.kind != 'r' {
				fr.stack[d-2] = iv(x.i + y.i)
			} else {
				fr.stack[d-2] = fr.m.arith(OpAdd, x, y)
			}
			return next
		}
	case OpSub:
		return func(fr *cframe) *step {
			if !fr.pre(pc, w) {
				fr.preSlow(w)
			}
			x, y := fr.stack[d-2], fr.stack[d-1]
			if x.kind != 'r' && y.kind != 'r' {
				fr.stack[d-2] = iv(x.i - y.i)
			} else {
				fr.stack[d-2] = fr.m.arith(OpSub, x, y)
			}
			return next
		}
	case OpMul:
		return func(fr *cframe) *step {
			if !fr.pre(pc, w) {
				fr.preSlow(w)
			}
			x, y := fr.stack[d-2], fr.stack[d-1]
			if x.kind != 'r' && y.kind != 'r' {
				fr.stack[d-2] = iv(x.i * y.i)
			} else {
				fr.stack[d-2] = fr.m.arith(OpMul, x, y)
			}
			return next
		}
	case OpDiv:
		return func(fr *cframe) *step {
			if !fr.pre(pc, w) {
				fr.preSlow(w)
			}
			x, y := fr.stack[d-2], fr.stack[d-1]
			if x.kind != 'r' && y.kind != 'r' {
				if y.i == 0 {
					fr.m.fail("division by zero")
				}
				fr.stack[d-2] = iv(x.i / y.i)
			} else {
				fr.stack[d-2] = fr.m.arith(OpDiv, x, y)
			}
			return next
		}
	case OpMod:
		return func(fr *cframe) *step {
			if !fr.pre(pc, w) {
				fr.preSlow(w)
			}
			x, y := fr.stack[d-2], fr.stack[d-1]
			if x.kind != 'r' && y.kind != 'r' {
				if y.i == 0 {
					fr.m.fail("modulo by zero")
				}
				fr.stack[d-2] = iv(x.i % y.i)
			} else {
				fr.stack[d-2] = fr.m.arith(OpMod, x, y)
			}
			return next
		}
	case OpEq:
		return func(fr *cframe) *step {
			if !fr.pre(pc, w) {
				fr.preSlow(w)
			}
			x, y := fr.stack[d-2], fr.stack[d-1]
			if x.kind != 'r' && y.kind != 'r' {
				fr.stack[d-2] = iv(b2i(x.i == y.i))
			} else {
				fr.stack[d-2] = fr.m.arith(OpEq, x, y)
			}
			return next
		}
	case OpNe:
		return func(fr *cframe) *step {
			if !fr.pre(pc, w) {
				fr.preSlow(w)
			}
			x, y := fr.stack[d-2], fr.stack[d-1]
			if x.kind != 'r' && y.kind != 'r' {
				fr.stack[d-2] = iv(b2i(x.i != y.i))
			} else {
				fr.stack[d-2] = fr.m.arith(OpNe, x, y)
			}
			return next
		}
	case OpLt:
		return func(fr *cframe) *step {
			if !fr.pre(pc, w) {
				fr.preSlow(w)
			}
			x, y := fr.stack[d-2], fr.stack[d-1]
			if x.kind != 'r' && y.kind != 'r' {
				fr.stack[d-2] = iv(b2i(x.i < y.i))
			} else {
				fr.stack[d-2] = fr.m.arith(OpLt, x, y)
			}
			return next
		}
	case OpLe:
		return func(fr *cframe) *step {
			if !fr.pre(pc, w) {
				fr.preSlow(w)
			}
			x, y := fr.stack[d-2], fr.stack[d-1]
			if x.kind != 'r' && y.kind != 'r' {
				fr.stack[d-2] = iv(b2i(x.i <= y.i))
			} else {
				fr.stack[d-2] = fr.m.arith(OpLe, x, y)
			}
			return next
		}
	case OpGt:
		return func(fr *cframe) *step {
			if !fr.pre(pc, w) {
				fr.preSlow(w)
			}
			x, y := fr.stack[d-2], fr.stack[d-1]
			if x.kind != 'r' && y.kind != 'r' {
				fr.stack[d-2] = iv(b2i(x.i > y.i))
			} else {
				fr.stack[d-2] = fr.m.arith(OpGt, x, y)
			}
			return next
		}
	case OpGe:
		return func(fr *cframe) *step {
			if !fr.pre(pc, w) {
				fr.preSlow(w)
			}
			x, y := fr.stack[d-2], fr.stack[d-1]
			if x.kind != 'r' && y.kind != 'r' {
				fr.stack[d-2] = iv(b2i(x.i >= y.i))
			} else {
				fr.stack[d-2] = fr.m.arith(OpGe, x, y)
			}
			return next
		}
	}
	return func(fr *cframe) *step {
		if !fr.pre(pc, w) {
			fr.preSlow(w)
		}
		fr.stack[d-2] = fr.m.arith(op, fr.stack[d-2], fr.stack[d-1])
		return next
	}
}

// b2i converts a comparison result to the VM's 0/1 integer encoding;
// it inlines to a branch-free setcc.
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
