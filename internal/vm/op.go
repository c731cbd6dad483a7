// Package vm compiles MiniCC programs to bytecode and executes them on
// the simulated SMP. It is the project's one execution engine: the
// root package, mccrun, the bench experiments and the examples all run
// programs here. The tree-walking interpreter (internal/interp) is its
// test oracle: the two share nothing but the front end, the allocators
// and the pool runtime, so the differential tests that run both over
// the same program corpus cross-validate evaluation order, scoping,
// object lifecycle and the Amplify runtime semantics. The VM compiles
// the frame slots and member bindings sema recorded, resolving no name
// itself, and models a compiled program's tighter per-statement cost.
package vm

import "fmt"

// Op is a bytecode opcode.
type Op uint8

// Opcodes. Instructions use A (and sometimes B) as immediate operands;
// the stack effect is noted.
const (
	OpNop Op = iota
	// OpConst pushes constants[A].
	OpConst
	// OpNull pushes the null reference.
	OpNull
	// OpLoadLocal pushes locals[A]; OpStoreLocal pops into locals[A].
	OpLoadLocal
	OpStoreLocal
	// OpLoadThis pushes the receiver.
	OpLoadThis
	// OpLoadField pops an object ref and pushes its field A.
	// OpStoreField pops a value then an object ref and stores field A.
	// C is the class id the field belongs to; an object of another
	// class faults.
	OpLoadField
	OpStoreField
	// OpIndexLoad pops index then buffer; pushes element.
	// OpIndexStore pops value, index, buffer.
	OpIndexLoad
	OpIndexStore
	// Arithmetic/logic: pop two (or one for OpNeg/OpNot), push result.
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpNeg
	OpNot
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	// OpJmp jumps to A; OpJmpFalse/OpJmpTrue pop a condition and jump
	// to A when it is false/true (used for control flow and the
	// short-circuit operators).
	OpJmp
	OpJmpFalse
	OpJmpTrue
	// OpDup duplicates the top of stack; OpPop discards it.
	OpDup
	OpPop
	// OpCall invokes function A with B arguments (pushed left to
	// right); the callee's return value is pushed.
	OpCall
	// OpMethod invokes function A, a method of class C, with B
	// arguments on the receiver pushed before the arguments. Members
	// bind statically: a receiver of another class faults.
	OpMethod
	// OpDtor pops a receiver and runs class A's destructor in place
	// (explicit p->~T() call).
	OpDtor
	// OpNew allocates class A and runs its constructor with B popped
	// arguments; pushes the new reference. OpPlacementNew additionally
	// pops the placement target (pushed before the arguments).
	OpNew
	OpPlacementNew
	// OpNewArray pops a length and allocates a buffer; A is the element
	// size in bytes.
	OpNewArray
	// OpDelete pops a reference and deletes the object (destructor,
	// then operator delete or the heap); OpDeleteArray frees a buffer.
	OpDelete
	OpDeleteArray
	// OpRet pops the return value and returns; OpRetVoid returns zero.
	OpRet
	OpRetVoid
	// OpPrint pops A values and prints them space-separated.
	OpPrint
	// OpSpawn starts function A on a new thread with B popped
	// arguments; OpJoin waits for all spawned threads.
	OpSpawn
	OpJoin
	// OpWork charges the popped number of cycles (__work intrinsic).
	OpWork
	// OpPoolAlloc pushes a structure from class A's pool; OpPoolFree
	// pops a reference into class A's pool (__pool_alloc/__pool_free).
	OpPoolAlloc
	OpPoolFree
	// OpRealloc pops size then pointer and pushes the shadow-realloc'd
	// buffer; OpShadowSave pops a pointer and pushes it back (or null)
	// per the shadow-retention rule.
	OpRealloc
	OpShadowSave

	// Superinstructions, emitted only by the peephole pass. Each one
	// carries the work units (W) of the instructions it replaces, so
	// fused code charges the simulated machine identically.

	// OpLoadLocalField pushes field B of the object in locals[A], an
	// object of class C (fused OpLoadLocal+OpLoadField).
	OpLoadLocalField
	// OpAddConst adds constants[A] to the top of stack in place (fused
	// OpConst+OpAdd).
	OpAddConst
	// OpCallL1 invokes function A passing locals[B] as the only
	// argument; OpCallL2 passes locals[B&0xffff] and locals[B>>16]
	// (fused OpLoadLocal windows feeding an OpCall).
	OpCallL1
	OpCallL2

	// Escape-analysis runtime ops (PR 6). OpFrameAlloc pushes a frame-
	// region slot for class A in the constructed-pending state
	// (__frame_alloc); OpFrameFree pops a reference, runs class A's
	// destructor and returns the slot (__frame_free). Thread-private
	// pool traffic reuses OpPoolAlloc/OpPoolFree with B=1. OpPoolReserve
	// pops a count and pre-populates class A's pool (__pool_reserve).
	OpFrameAlloc
	OpFrameFree
	OpPoolReserve
)

var opNames = [...]string{
	OpNop: "nop", OpConst: "const", OpNull: "null",
	OpLoadLocal: "loadl", OpStoreLocal: "storel", OpLoadThis: "this",
	OpLoadField: "loadf", OpStoreField: "storef",
	OpIndexLoad: "loadi", OpIndexStore: "storei",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpMod: "mod",
	OpNeg: "neg", OpNot: "not",
	OpEq: "eq", OpNe: "ne", OpLt: "lt", OpLe: "le", OpGt: "gt", OpGe: "ge",
	OpJmp: "jmp", OpJmpFalse: "jmpf", OpJmpTrue: "jmpt",
	OpDup: "dup", OpPop: "pop",
	OpCall: "call", OpMethod: "method", OpDtor: "dtor",
	OpNew: "new", OpPlacementNew: "pnew", OpNewArray: "newarr",
	OpDelete: "delete", OpDeleteArray: "delarr",
	OpRet: "ret", OpRetVoid: "retv", OpPrint: "print",
	OpSpawn: "spawn", OpJoin: "join", OpWork: "work",
	OpPoolAlloc: "palloc", OpPoolFree: "pfree",
	OpRealloc: "realloc", OpShadowSave: "shsave",
	OpLoadLocalField: "loadlf", OpAddConst: "addc",
	OpCallL1: "calll1", OpCallL2: "calll2",
	OpFrameAlloc: "falloc", OpFrameFree: "ffree", OpPoolReserve: "preserve",
}

// privateOp marks the opcodes that make no simulator call and touch
// only the executing thread's frame and operand stack. A threaded run
// charges their work as run-ahead (sim.Ctx.Compute) and syncs before
// every other opcode. Division and modulo are not private because they
// can fault; the arithmetic ops below fault only on pointer operands,
// and exec syncs before that check. TestPrivateOpsMakeNoEngineCall
// holds every opcode listed here to that.
var privateOp = [256]bool{
	OpNop: true, OpConst: true, OpNull: true,
	OpLoadLocal: true, OpStoreLocal: true, OpLoadThis: true,
	OpAdd: true, OpSub: true, OpMul: true, OpNeg: true, OpNot: true,
	OpEq: true, OpNe: true, OpLt: true, OpLe: true, OpGt: true, OpGe: true,
	OpJmp: true, OpJmpFalse: true, OpJmpTrue: true,
	OpDup: true, OpPop: true, OpAddConst: true,
	OpCall: true, OpCallL1: true, OpCallL2: true,
	OpRet: true, OpRetVoid: true,
}

// String names the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Instr is one instruction. A and B are immediate operands; C is the
// allocation-site index of an allocating opcode, or the class id a
// member access's receiver must have; W is the
// instruction's work charge in simulated cycles — 1 for every
// instruction the compiler emits, the sum of the fused instructions'
// charges for peephole output, so that optimization never changes
// virtual time.
type Instr struct {
	Op   Op
	W    uint16
	A, B int32
	C    int32
}

// String formats the instruction for disassembly.
func (i Instr) String() string {
	s := i.Op.String()
	switch i.Op {
	case OpConst, OpLoadLocal, OpStoreLocal, OpLoadField, OpStoreField,
		OpJmp, OpJmpFalse, OpJmpTrue, OpNewArray, OpDtor, OpPrint,
		OpPoolAlloc, OpPoolFree, OpAddConst,
		OpFrameAlloc, OpFrameFree, OpPoolReserve:
		s = fmt.Sprintf("%-8s %d", i.Op, i.A)
	case OpCall, OpMethod, OpNew, OpPlacementNew, OpSpawn,
		OpLoadLocalField, OpCallL1, OpCallL2:
		s = fmt.Sprintf("%-8s %d, %d", i.Op, i.A, i.B)
	}
	if i.W > 1 {
		s = fmt.Sprintf("%s  ;w=%d", s, i.W)
	}
	return s
}
