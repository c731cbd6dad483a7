// Package interp executes MiniCC programs on the simulated SMP by
// walking the analyzed tree. It is the test oracle of the bytecode VM
// (internal/vm), the project's execution engine: only tests import it.
// The same source can be run unmodified over any C-library allocator,
// or — after the Amplify pre-processor (internal/core) rewrote it —
// with the structure-pool runtime intrinsics bound to internal/pool.
// Thread spawn/join map to simulator threads, so a program's output,
// allocation counts and lock traffic must match the VM's exactly, and
// its makespan within the engines' 2x cost-accounting band.
package interp

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

// Run executes an analyzed program. MaxSteps bounds interpreted
// statements per thread.
func Run(prog *cc.Program, cfg target.Config) (res target.Result, err error) {
	if prog.Funcs["main"] == nil {
		return res, fmt.Errorf("interp: program has no main function")
	}
	mc, err := target.Boot(cfg, target.Options{ElidePoolLocks: !prog.UsesThreads})
	if err != nil {
		return res, err
	}
	m := &machine{
		prog:     prog,
		maxSteps: mc.MaxSteps,
		alloc:    mc.Alloc,
		rt:       mc.Pools,
		pools:    make(map[string]*pool.ClassPool),
		objects:  make(map[mem.Ref]*object),
		buffers:  make(map[mem.Ref]*buffer),
		joinable: mc.Engine.NewWaitGroup(),
	}
	mc.Engine.Go("main", func(c *sim.Ctx) {
		ret := m.callFunc(c, prog.Funcs["main"], nil)
		m.exitCode = ret.i
	})
	defer func() {
		if r := recover(); r != nil {
			re, ok := r.(*runtimeError)
			if !ok {
				panic(r)
			}
			err = re
		}
	}()
	res.Counters = mc.Run()
	res.Output = m.out.String()
	res.ExitCode = m.exitCode
	res.PlacementFallbacks = m.placementFallbacks
	return res, nil
}

// runtimeError aborts execution with a message and position.
type runtimeError struct {
	pos Pos
	msg string
}

// Pos aliases cc.Pos for error reporting.
type Pos = cc.Pos

func (e *runtimeError) Error() string {
	return fmt.Sprintf("interp: %s: %s", e.pos, e.msg)
}

func rtErr(pos Pos, format string, args ...any) *runtimeError {
	return &runtimeError{pos: pos, msg: fmt.Sprintf(format, args...)}
}

// objState tracks an object's lifecycle.
type objState int8

const (
	stLive      objState = iota
	stDestroyed          // destructor ran; memory retained (shadow/pool)
	stFreed              // memory returned to the allocator
)

// object is the interpreter-side record of a class instance.
type object struct {
	class  *cc.ClassDecl
	fields []value
	state  objState
}

// buffer is a data array (char[]/int[]).
type buffer struct {
	elem   string
	length int64
	usable int64
	data   []int64
	state  objState
}

// value is a runtime value: an integer, a string, or a reference (to an
// object or buffer; zero is null).
type value struct {
	kind byte // 'i', 's', 'r'
	i    int64
	s    string
	ref  mem.Ref
}

func intVal(n int64) value   { return value{kind: 'i', i: n} }
func strVal(s string) value  { return value{kind: 's', s: s} }
func refVal(r mem.Ref) value { return value{kind: 'r', ref: r} }
func (v value) isRef() bool  { return v.kind == 'r' }
func (v value) truthy() bool {
	return (v.kind == 'i' && v.i != 0) || (v.kind == 'r' && v.ref != mem.Nil)
}
func (v value) String() string {
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

// zeroFor returns the zero value of a declared type.
func zeroFor(t cc.Type) value {
	if t.IsPointer() {
		return refVal(mem.Nil)
	}
	return intVal(0)
}

// frame is one activation record. Locals live in a scope stack of the
// interpreter's own, resolved by name, so that the differential tests
// check the frame slots sema records for the VM against an independent
// resolution.
type frame struct {
	vars  cc.Scopes[value]
	this  mem.Ref
	class *cc.ClassDecl
	steps *int64
}

// machine is the shared execution state.
type machine struct {
	prog     *cc.Program
	maxSteps int64
	alloc    alloc.Allocator
	rt       *pool.Runtime
	pools    map[string]*pool.ClassPool
	objects  map[mem.Ref]*object
	buffers  map[mem.Ref]*buffer
	joinable *sim.WaitGroup
	spawned  int
	out      strings.Builder
	exitCode int64
	// placementFallbacks counts placement-new attempts that found a
	// live (still in use) shadow object and had to allocate normally —
	// the "reorganize the structure" path of §3.2.
	placementFallbacks int64
}

// poolFor lazily creates the class pool (the generated operator new of
// every class refers to its own pool, created on first use).
func (m *machine) poolFor(cd *cc.ClassDecl) *pool.ClassPool {
	p, ok := m.pools[cd.Name]
	if !ok {
		p = m.rt.NewClassPool(cd.Name, cd.Size)
		m.pools[cd.Name] = p
	}
	return p
}

// privatePoolFor is poolFor for classes the escape analysis proved
// thread-local: the pool runs lock-free with one shard per thread. The
// rewriter routes a class through exactly one of the two modes, so the
// shared map cannot hold a pool of the wrong kind.
func (m *machine) privatePoolFor(cd *cc.ClassDecl) *pool.ClassPool {
	p, ok := m.pools[cd.Name]
	if !ok {
		p = m.rt.NewPrivateClassPool(cd.Name, cd.Size)
		m.pools[cd.Name] = p
	}
	return p
}

// getObject returns the live-or-destroyed object at ref.
func (m *machine) getObject(pos Pos, ref mem.Ref) *object {
	if ref == mem.Nil {
		panic(rtErr(pos, "null pointer dereference"))
	}
	o, ok := m.objects[ref]
	if !ok {
		panic(rtErr(pos, "reference 0x%x is not an object", uint64(ref)))
	}
	if o.state == stFreed {
		panic(rtErr(pos, "use after free of %s object", o.class.Name))
	}
	return o
}

// liveObject additionally requires a constructed object.
func (m *machine) liveObject(pos Pos, ref mem.Ref) *object {
	o := m.getObject(pos, ref)
	if o.state != stLive {
		panic(rtErr(pos, "use of destroyed %s object", o.class.Name))
	}
	return o
}

func (m *machine) getBuffer(pos Pos, ref mem.Ref) *buffer {
	if ref == mem.Nil {
		panic(rtErr(pos, "null buffer dereference"))
	}
	b, ok := m.buffers[ref]
	if !ok {
		panic(rtErr(pos, "reference 0x%x is not a buffer", uint64(ref)))
	}
	if b.state == stFreed {
		panic(rtErr(pos, "use after free of buffer"))
	}
	return b
}

// step charges interpretation work and enforces the step bound.
func (m *machine) step(c *sim.Ctx, f *frame) {
	*f.steps++
	if *f.steps > m.maxSteps {
		panic(rtErr(Pos{}, "step limit exceeded (%d); non-terminating program?", m.maxSteps))
	}
	c.Work(1)
}

// callFunc invokes a free function.
func (m *machine) callFunc(c *sim.Ctx, fd *cc.FuncDecl, args []value) value {
	var steps int64
	f := &frame{steps: &steps}
	f.vars.Push()
	for i, p := range fd.Params {
		f.vars.Declare(p.Name, args[i])
	}
	ret, _ := m.execBlock(c, f, fd.Body)
	return ret
}

// callMethod invokes a member function on this.
func (m *machine) callMethod(c *sim.Ctx, this mem.Ref, meth *cc.Method, args []value) value {
	var steps int64
	f := &frame{this: this, class: meth.Class, steps: &steps}
	f.vars.Push()
	for i, p := range meth.Params {
		f.vars.Declare(p.Name, args[i])
	}
	ret, _ := m.execBlock(c, f, meth.Body)
	return ret
}

// execBlock runs statements in a fresh lexical scope; the bool reports
// early return.
func (m *machine) execBlock(c *sim.Ctx, f *frame, b *cc.Block) (value, bool) {
	f.vars.Push()
	defer f.vars.Pop()
	for _, s := range b.Stmts {
		if ret, returned := m.execStmt(c, f, s); returned {
			return ret, true
		}
	}
	return value{}, false
}

func (m *machine) execStmt(c *sim.Ctx, f *frame, s cc.Stmt) (value, bool) {
	m.step(c, f)
	switch s := s.(type) {
	case *cc.Block:
		return m.execBlock(c, f, s)
	case *cc.VarDecl:
		v := zeroFor(s.Type)
		if s.Init != nil {
			v = m.eval(c, f, s.Init)
		}
		f.vars.Declare(s.Name, v)
		return value{}, false
	case *cc.ExprStmt:
		m.eval(c, f, s.X)
		return value{}, false
	case *cc.If:
		if m.eval(c, f, s.Cond).truthy() {
			return m.execStmt(c, f, s.Then)
		}
		if s.Else != nil {
			return m.execStmt(c, f, s.Else)
		}
		return value{}, false
	case *cc.While:
		for m.eval(c, f, s.Cond).truthy() {
			m.step(c, f)
			if ret, returned := m.execStmt(c, f, s.Body); returned {
				return ret, true
			}
		}
		return value{}, false
	case *cc.For:
		f.vars.Push()
		defer f.vars.Pop()
		if s.Init != nil {
			if ret, returned := m.execStmt(c, f, s.Init); returned {
				return ret, true
			}
		}
		for s.Cond == nil || m.eval(c, f, s.Cond).truthy() {
			m.step(c, f)
			if ret, returned := m.execStmt(c, f, s.Body); returned {
				return ret, true
			}
			if s.Post != nil {
				m.eval(c, f, s.Post)
			}
		}
		return value{}, false
	case *cc.Return:
		if s.X != nil {
			return m.eval(c, f, s.X), true
		}
		return value{}, true
	case *cc.DeleteStmt:
		m.execDelete(c, f, s)
		return value{}, false
	case *cc.Spawn:
		m.execSpawn(c, f, s)
		return value{}, false
	case *cc.Join:
		m.joinable.Wait(c)
		return value{}, false
	}
	panic(rtErr(Pos{}, "unknown statement %T", s))
}

func (m *machine) execSpawn(c *sim.Ctx, f *frame, s *cc.Spawn) {
	fd := m.prog.Funcs[s.Func]
	args := make([]value, len(s.Args))
	for i, a := range s.Args {
		args[i] = m.eval(c, f, a)
	}
	m.spawned++
	m.joinable.Add(1)
	c.Go(fmt.Sprintf("%s#%d", s.Func, m.spawned), func(cc2 *sim.Ctx) {
		m.callFunc(cc2, fd, args)
		m.joinable.Done(cc2)
	})
}

// execDelete implements `delete p` (destructor, then operator delete or
// the heap) and `delete[] b`.
func (m *machine) execDelete(c *sim.Ctx, f *frame, s *cc.DeleteStmt) {
	v := m.eval(c, f, s.X)
	if !v.isRef() {
		panic(rtErr(s.Pos, "delete of non-pointer value"))
	}
	if v.ref == mem.Nil {
		return // delete null is a no-op, as in C++
	}
	if s.Array {
		b := m.getBuffer(s.Pos, v.ref)
		b.state = stFreed
		m.alloc.Free(c, v.ref)
		return
	}
	o := m.liveObject(s.Pos, v.ref)
	if dtor := o.class.Dtor(); dtor != nil {
		m.callMethod(c, v.ref, dtor, nil)
	}
	o.state = stDestroyed
	if opDel := o.class.OperatorDelete(); opDel != nil {
		m.callMethod(c, v.ref, opDel, []value{refVal(v.ref)})
		return
	}
	o.state = stFreed
	m.alloc.Free(c, v.ref)
}

// --- Expression evaluation.

func (m *machine) eval(c *sim.Ctx, f *frame, e cc.Expr) value {
	m.step(c, f)
	switch e := e.(type) {
	case *cc.IntLit:
		return intVal(e.Value)
	case *cc.StrLit:
		return strVal(e.Value)
	case *cc.NullLit:
		return refVal(mem.Nil)
	case *cc.This:
		return refVal(f.this)
	case *cc.Paren:
		return m.eval(c, f, e.X)
	case *cc.Ident:
		return m.readIdent(c, f, e)
	case *cc.Unary:
		x := m.eval(c, f, e.X)
		if e.Op == cc.Not {
			if x.truthy() {
				return intVal(0)
			}
			return intVal(1)
		}
		return intVal(-x.i)
	case *cc.Binary:
		return m.evalBinary(c, f, e)
	case *cc.AssignExpr:
		v := m.eval(c, f, e.RHS)
		m.assign(c, f, e.LHS, v)
		return v
	case *cc.Call:
		return m.evalCall(c, f, e)
	case *cc.MethodCall:
		recv := m.eval(c, f, e.Recv)
		o := m.liveObject(e.Pos, recv.ref)
		if o.class != e.Method.Class {
			panic(rtErr(e.Pos, "method %s::%s called on %s object", e.Method.Class.Name, e.Name, o.class.Name))
		}
		meth := o.class.MethodByName(e.Name)
		if meth == nil {
			panic(rtErr(e.Pos, "class %s has no method %s", o.class.Name, e.Name))
		}
		args := make([]value, len(e.Args))
		for i, a := range e.Args {
			args[i] = m.eval(c, f, a)
		}
		return m.callMethod(c, recv.ref, meth, args)
	case *cc.DtorCall:
		recv := m.eval(c, f, e.Recv)
		o := m.liveObject(e.Pos, recv.ref)
		if o.class.Name != e.Class {
			panic(rtErr(e.Pos, "destructor ~%s called on %s object", e.Class, o.class.Name))
		}
		if dtor := o.class.Dtor(); dtor != nil {
			m.callMethod(c, recv.ref, dtor, nil)
		}
		o.state = stDestroyed
		return value{}
	case *cc.FieldAccess:
		recv := m.eval(c, f, e.Recv)
		return m.readField(c, e.Pos, recv.ref, e.Field.Class, e.Name)
	case *cc.Index:
		x := m.eval(c, f, e.X)
		i := m.eval(c, f, e.I)
		b := m.getBuffer(e.Pos, x.ref)
		if i.i < 0 || i.i >= b.length {
			panic(rtErr(e.Pos, "index %d out of range [0,%d)", i.i, b.length))
		}
		v := intVal(b.data[i.i])
		c.Read(uint64(x.ref)+uint64(i.i)*uint64(elemSize(b.elem)), int64(elemSize(b.elem)))
		return v
	case *cc.NewExpr:
		return m.evalNew(c, f, e)
	case *cc.NewArray:
		n := m.eval(c, f, e.Len)
		return m.newBuffer(c, e.Pos, e.Elem.Name, n.i)
	}
	panic(rtErr(Pos{}, "unknown expression %T", e))
}

func elemSize(elem string) int {
	if elem == "int" {
		return cc.FieldSize
	}
	return 1
}

// newBuffer allocates a plain data array from the allocator.
func (m *machine) newBuffer(c *sim.Ctx, pos Pos, elem string, n int64) value {
	if n < 0 {
		panic(rtErr(pos, "new %s[%d]: negative length", elem, n))
	}
	size := n * int64(elemSize(elem))
	if size == 0 {
		size = 1
	}
	ref := m.alloc.Alloc(c, size)
	m.buffers[ref] = &buffer{
		elem:   elem,
		length: n,
		usable: m.alloc.UsableSize(ref),
		data:   make([]int64, n),
		state:  stLive,
	}
	return refVal(ref)
}

func (m *machine) readIdent(c *sim.Ctx, f *frame, e *cc.Ident) value {
	switch e.Kind {
	case cc.FieldIdent:
		return m.readField(c, e.Pos, f.this, f.class, e.Name)
	default:
		v, ok := f.vars.Lookup(e.Name)
		if !ok {
			panic(rtErr(e.Pos, "unbound identifier %s", e.Name))
		}
		return *v
	}
}

// readField loads a field through the cache model. Destroyed (shadowed
// or pooled) objects may still be read by generated code — their
// shadow pointers are exactly what placement new consults — so only
// freed memory is an error. Like every field and element access, and
// as in the VM, the load takes effect at its start: the value is taken
// before the access is charged.
func (m *machine) readField(c *sim.Ctx, pos Pos, ref mem.Ref, static *cc.ClassDecl, name string) value {
	o := m.classObject(pos, ref, static, name)
	fl := o.class.FieldByName(name)
	if fl == nil {
		panic(rtErr(pos, "class %s has no field %s", o.class.Name, name))
	}
	v := o.fields[fieldIndex(o.class, name)]
	c.Read(uint64(ref)+uint64(fl.Offset), cc.FieldSize)
	return v
}

func (m *machine) writeField(c *sim.Ctx, pos Pos, ref mem.Ref, static *cc.ClassDecl, name string, v value) {
	o := m.classObject(pos, ref, static, name)
	fl := o.class.FieldByName(name)
	if fl == nil {
		panic(rtErr(pos, "class %s has no field %s", o.class.Name, name))
	}
	o.fields[fieldIndex(o.class, name)] = v
	c.Write(uint64(ref)+uint64(fl.Offset), cc.FieldSize)
}

// classObject is getObject for an access to field name of class
// static, the receiver's static class. Members bind statically, as in
// C++ and the VM, so an object of another class, reachable only through
// a pointer converted via void*, faults.
func (m *machine) classObject(pos Pos, ref mem.Ref, static *cc.ClassDecl, name string) *object {
	o := m.getObject(pos, ref)
	if o.class != static {
		panic(rtErr(pos, "field %s::%s accessed on %s object", static.Name, name, o.class.Name))
	}
	return o
}

func fieldIndex(cd *cc.ClassDecl, name string) int {
	for i, f := range cd.Fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

func (m *machine) assign(c *sim.Ctx, f *frame, lhs cc.Expr, v value) {
	switch lhs := lhs.(type) {
	case *cc.Paren:
		m.assign(c, f, lhs.X, v)
	case *cc.Ident:
		if lhs.Kind == cc.FieldIdent {
			m.writeField(c, lhs.Pos, f.this, f.class, lhs.Name, v)
			return
		}
		slot, ok := f.vars.Lookup(lhs.Name)
		if !ok {
			panic(rtErr(lhs.Pos, "unbound identifier %s", lhs.Name))
		}
		*slot = v
	case *cc.FieldAccess:
		recv := m.eval(c, f, lhs.Recv)
		m.writeField(c, lhs.Pos, recv.ref, lhs.Field.Class, lhs.Name, v)
	case *cc.Index:
		x := m.eval(c, f, lhs.X)
		i := m.eval(c, f, lhs.I)
		b := m.getBuffer(lhs.Pos, x.ref)
		if i.i < 0 || i.i >= b.length {
			panic(rtErr(lhs.Pos, "index %d out of range [0,%d)", i.i, b.length))
		}
		b.data[i.i] = v.i
		c.Write(uint64(x.ref)+uint64(i.i)*uint64(elemSize(b.elem)), int64(elemSize(b.elem)))
	default:
		panic(rtErr(Pos{}, "cannot assign to %T", lhs))
	}
}

func (m *machine) evalBinary(c *sim.Ctx, f *frame, e *cc.Binary) value {
	// Short-circuit logic first.
	switch e.Op {
	case cc.AndAnd:
		if !m.eval(c, f, e.X).truthy() {
			return intVal(0)
		}
		if m.eval(c, f, e.Y).truthy() {
			return intVal(1)
		}
		return intVal(0)
	case cc.OrOr:
		if m.eval(c, f, e.X).truthy() {
			return intVal(1)
		}
		if m.eval(c, f, e.Y).truthy() {
			return intVal(1)
		}
		return intVal(0)
	}
	x := m.eval(c, f, e.X)
	y := m.eval(c, f, e.Y)
	if x.isRef() || y.isRef() {
		// Pointer comparison: a pointer equals only a pointer, so
		// comparing an int or a string with null is false, as on the VM.
		eq := x.ref == y.ref && x.i == y.i && x.kind == y.kind
		b := false
		switch e.Op {
		case cc.Eq:
			b = eq
		case cc.Ne:
			b = !eq
		default:
			panic(rtErr(e.Pos, "invalid pointer arithmetic"))
		}
		if b {
			return intVal(1)
		}
		return intVal(0)
	}
	asBool := func(b bool) value {
		if b {
			return intVal(1)
		}
		return intVal(0)
	}
	switch e.Op {
	case cc.Plus:
		return intVal(x.i + y.i)
	case cc.Minus:
		return intVal(x.i - y.i)
	case cc.Star:
		return intVal(x.i * y.i)
	case cc.Slash:
		if y.i == 0 {
			panic(rtErr(e.Pos, "division by zero"))
		}
		return intVal(x.i / y.i)
	case cc.Percent:
		if y.i == 0 {
			panic(rtErr(e.Pos, "modulo by zero"))
		}
		return intVal(x.i % y.i)
	case cc.Eq:
		return asBool(x.i == y.i)
	case cc.Ne:
		return asBool(x.i != y.i)
	case cc.Lt:
		return asBool(x.i < y.i)
	case cc.Le:
		return asBool(x.i <= y.i)
	case cc.Gt:
		return asBool(x.i > y.i)
	case cc.Ge:
		return asBool(x.i >= y.i)
	}
	panic(rtErr(e.Pos, "unknown operator"))
}

// evalNew implements ordinary, pooled and placement new.
func (m *machine) evalNew(c *sim.Ctx, f *frame, e *cc.NewExpr) value {
	cd := m.prog.Classes[e.Class]
	// The placement expression is evaluated before the constructor
	// arguments (both engines agree on this order).
	var placement value
	if e.Placement != nil {
		placement = m.eval(c, f, e.Placement)
	}
	args := make([]value, len(e.Args))
	for i, a := range e.Args {
		args[i] = m.eval(c, f, a)
	}
	var ref mem.Ref
	if e.Placement != nil {
		p := placement
		if p.truthy() {
			// Reuse the shadowed object: type check (the "enough
			// space" check of §3.2), then reconstruct in place.
			o := m.getObject(e.Pos, p.ref)
			if o.class != cd {
				panic(rtErr(e.Pos, "placement new: shadow holds %s, want %s", o.class.Name, cd.Name))
			}
			if o.state == stLive {
				// The structure being built is not identical to the one
				// last deleted (e.g. a loop allocated through the same
				// field twice). §3.2: "we will then take the overhead
				// of reorganizing the structure to fit this specific
				// case" — allocate normally instead of reusing.
				m.placementFallbacks++
			} else {
				o.state = stLive
				ref = p.ref
				m.runCtor(c, cd, ref, args)
				return refVal(ref)
			}
		}
		// Null or unusable shadow: fall through to normal allocation.
	}
	ref = m.allocObject(c, e.Pos, cd)
	m.runCtor(c, cd, ref, args)
	return refVal(ref)
}

// allocObject obtains raw storage for a class instance — through the
// class's operator new when it has one, else from the allocator — and
// ensures an object record exists in the constructed-pending state.
func (m *machine) allocObject(c *sim.Ctx, pos Pos, cd *cc.ClassDecl) mem.Ref {
	if opNew := cd.OperatorNew(); opNew != nil {
		v := m.callMethod(c, mem.Nil, opNew, []value{intVal(cd.Size)})
		if !v.isRef() || v.ref == mem.Nil {
			panic(rtErr(pos, "operator new of %s returned %s", cd.Name, v))
		}
		o, ok := m.objects[v.ref]
		if !ok {
			panic(rtErr(pos, "operator new of %s returned a non-object reference", cd.Name))
		}
		o.state = stLive
		return v.ref
	}
	ref := m.alloc.Alloc(c, cd.Size)
	m.objects[ref] = newObjectRecord(cd)
	return ref
}

// newObjectRecord builds a zeroed record — "when a new Root object is
// allocated on the heap all shadows are set to 0" (§3.2), and so is
// everything else.
func (m *machine) runCtor(c *sim.Ctx, cd *cc.ClassDecl, ref mem.Ref, args []value) {
	if ctor := cd.Ctor(); ctor != nil {
		m.callMethod(c, ref, ctor, args)
	}
}

func newObjectRecord(cd *cc.ClassDecl) *object {
	o := &object{class: cd, state: stLive, fields: make([]value, len(cd.Fields))}
	for i, fl := range cd.Fields {
		o.fields[i] = zeroFor(fl.Type)
	}
	return o
}

// evalCall dispatches free functions and runtime intrinsics.
func (m *machine) evalCall(c *sim.Ctx, f *frame, e *cc.Call) value {
	if _, ok := cc.Intrinsics[e.Func]; ok {
		return m.evalIntrinsic(c, f, e)
	}
	fd := m.prog.Funcs[e.Func]
	if fd == nil {
		panic(rtErr(e.Pos, "call of unknown function %s", e.Func))
	}
	args := make([]value, len(e.Args))
	for i, a := range e.Args {
		args[i] = m.eval(c, f, a)
	}
	return m.callFunc(c, fd, args)
}

func (m *machine) evalIntrinsic(c *sim.Ctx, f *frame, e *cc.Call) value {
	switch e.Func {
	case "print":
		parts := make([]string, len(e.Args))
		for i, a := range e.Args {
			parts[i] = m.eval(c, f, a).String()
		}
		m.out.WriteString(strings.Join(parts, " "))
		m.out.WriteByte('\n')
		return value{}

	case "__work":
		n := m.eval(c, f, e.Args[0])
		if n.i > 0 {
			c.Work(n.i)
		}
		return value{}

	case "__pool_alloc":
		cd := m.prog.Classes[e.Args[0].(*cc.Ident).Name]
		p := m.poolFor(cd)
		ref, reused := p.Alloc(c)
		if !reused {
			m.objects[ref] = newObjectRecord(cd)
		} else {
			// A pooled structure: its record (with shadow pointers and
			// child links intact) is still registered.
			o := m.objects[ref]
			o.state = stLive
		}
		// The caller (operator new) returns this to the new-expression,
		// which runs the constructor; until then the object is live raw
		// storage.
		m.objects[ref].state = stLive
		return refVal(ref)

	case "__pool_free":
		cd := m.prog.Classes[e.Args[0].(*cc.Ident).Name]
		v := m.eval(c, f, e.Args[1])
		if v.ref == mem.Nil {
			return value{}
		}
		o := m.getObject(e.Pos, v.ref)
		if o.class != cd {
			panic(rtErr(e.Pos, "__pool_free: %s object given to %s pool", o.class.Name, cd.Name))
		}
		p := m.poolFor(cd)
		if pooled := p.Free(c, v.ref); !pooled {
			o.state = stFreed
		}
		return value{}

	case "__frame_alloc":
		// Frame promotion (escape analysis): raw storage in the frame
		// region, handed to placement new in the constructed-pending
		// state so the constructor runs in place and operator new is
		// never involved. A reused slot of the same class keeps its old
		// object record — like pool reuse, so its shadow pointers stay
		// meaningful and placement new can revive the children.
		cd := m.prog.Classes[e.Args[0].(*cc.Ident).Name]
		ref := m.rt.Frame().Alloc(c, cd.Size)
		if o := m.objects[ref]; o == nil || o.class != cd {
			o = newObjectRecord(cd)
			o.state = stDestroyed
			m.objects[ref] = o
		}
		return refVal(ref)

	case "__frame_free":
		cd := m.prog.Classes[e.Args[0].(*cc.Ident).Name]
		v := m.eval(c, f, e.Args[1])
		if v.ref == mem.Nil {
			return value{}
		}
		o := m.liveObject(e.Pos, v.ref)
		if o.class != cd {
			panic(rtErr(e.Pos, "__frame_free: %s object given to %s frame slot", o.class.Name, cd.Name))
		}
		if dtor := cd.Dtor(); dtor != nil {
			m.callMethod(c, v.ref, dtor, nil)
		}
		// The record stays in the destroyed state (not freed): the slot
		// returns to the frame free list and the record's fields wait
		// there for the next same-class allocation, exactly like a
		// structure sitting in a class pool.
		o.state = stDestroyed
		m.rt.Frame().Free(c, cd.Size, v.ref)
		return value{}

	case "__pool_alloc_tl":
		cd := m.prog.Classes[e.Args[0].(*cc.Ident).Name]
		p := m.privatePoolFor(cd)
		ref, reused := p.Alloc(c)
		if !reused {
			m.objects[ref] = newObjectRecord(cd)
		} else {
			m.objects[ref].state = stLive
		}
		return refVal(ref)

	case "__pool_free_tl":
		cd := m.prog.Classes[e.Args[0].(*cc.Ident).Name]
		v := m.eval(c, f, e.Args[1])
		if v.ref == mem.Nil {
			return value{}
		}
		o := m.getObject(e.Pos, v.ref)
		if o.class != cd {
			panic(rtErr(e.Pos, "__pool_free_tl: %s object given to %s pool", o.class.Name, cd.Name))
		}
		p := m.privatePoolFor(cd)
		if pooled := p.Free(c, v.ref); !pooled {
			o.state = stFreed
		}
		return value{}

	case "__pool_reserve":
		// Pre-size a standard class pool from the statically inferred
		// allocation bound. Reserved structures sit in the free lists in
		// the constructed-pending state, exactly as if pooled after use.
		cd := m.prog.Classes[e.Args[0].(*cc.Ident).Name]
		n := m.eval(c, f, e.Args[1])
		if n.i > 0 {
			p := m.poolFor(cd)
			for _, ref := range p.Reserve(c, int(n.i)) {
				o := newObjectRecord(cd)
				o.state = stDestroyed
				m.objects[ref] = o
			}
		}
		return value{}

	case "realloc":
		ptr := m.eval(c, f, e.Args[0])
		n := m.eval(c, f, e.Args[1])
		if n.i < 0 {
			panic(rtErr(e.Pos, "realloc: negative size"))
		}
		var prevUsable int64
		var prevBuf *buffer
		if ptr.ref != mem.Nil {
			prevBuf = m.getBuffer(e.Pos, ptr.ref)
			prevUsable = prevBuf.usable
		}
		size := n.i
		if size == 0 {
			size = 1
		}
		ref, usable := m.rt.ShadowRealloc(c, ptr.ref, prevUsable, size)
		elem := "char"
		if prevBuf != nil {
			elem = prevBuf.elem
		}
		length := n.i / int64(elemSize(elem))
		if ref == ptr.ref && prevBuf != nil {
			// Reused in place: resize the logical view.
			prevBuf.length = length
			prevBuf.data = resize(prevBuf.data, length)
			prevBuf.state = stLive
			return refVal(ref)
		}
		if prevBuf != nil {
			prevBuf.state = stFreed
		}
		m.buffers[ref] = &buffer{
			elem:   elem,
			length: length,
			usable: usable,
			data:   make([]int64, length),
			state:  stLive,
		}
		return refVal(ref)

	case "__shadow_save":
		v := m.eval(c, f, e.Args[0])
		if v.ref == mem.Nil {
			return refVal(mem.Nil)
		}
		b := m.getBuffer(e.Pos, v.ref)
		if m.rt.ShadowSave(c, v.ref, b.usable) {
			b.state = stDestroyed // retained as shadow memory
			return refVal(v.ref)
		}
		b.state = stFreed
		return refVal(mem.Nil)
	}
	panic(rtErr(e.Pos, "unknown intrinsic %s", e.Func))
}

// resize grows or shrinks a data slice preserving prefix contents (the
// reused shadow block keeps its bytes, like realloc).
func resize(d []int64, n int64) []int64 {
	if int64(len(d)) >= n {
		return d[:n]
	}
	out := make([]int64, n)
	copy(out, d)
	return out
}
