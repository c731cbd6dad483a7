package vm

// The peephole pass rewrites each function's code with local,
// behavior-preserving transformations:
//
//   - constant folding: OpConst+OpConst+arith becomes one OpConst
//     (division and modulo by a constant zero are left alone so the
//     runtime fault still fires);
//   - known conditions: OpConst+OpJmpFalse/OpJmpTrue collapses to an
//     unconditional OpJmp or to nothing;
//   - superinstructions: OpLoadLocal+OpLoadField fuses to
//     OpLoadLocalField, OpConst+OpAdd to OpAddConst, and one- and
//     two-argument OpLoadLocal windows feeding an OpCall to
//     OpCallL1/OpCallL2;
//   - dead stack shuffles: OpDup+OpStoreLocal+OpPop becomes a bare
//     OpStoreLocal, and a pure push followed by OpPop disappears.
//
// Every replacement carries the summed W of the instructions it
// replaces, so the simulated machine is charged identically and
// makespans are byte-for-byte those of unoptimized code. Windows never
// span a jump target (a branch could land mid-pattern), and jump
// operands are renumbered through the old→new pc map after each pass.

// optimize runs the peephole pass over every function to fixpoint.
func optimize(p *Program) {
	var pp peepholer
	for _, fn := range p.Fns {
		for range 8 { // patterns cascade; fixpoint in a few passes
			code, changed := pp.pass(p, fn.Code)
			fn.Code = code
			if !changed {
				break
			}
		}
	}
}

// peepholer holds a pass's pc-indexed tables, reused across passes and
// functions.
type peepholer struct {
	target   []bool  // pcs a branch can land on
	oldToNew []int32 // old pc → new pc
}

// jumpTargets marks in t every pc a branch can land on, reusing t's
// storage.
func jumpTargets(t []bool, code []Instr) []bool {
	t = resize(t, len(code)+1)
	clear(t)
	for _, ins := range code {
		switch ins.Op {
		case OpJmp, OpJmpFalse, OpJmpTrue:
			t[ins.A] = true
		}
	}
	return t
}

// resize returns s with length n, reusing its storage when it fits.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// purePush reports whether ins only pushes one value, with no side
// effects or simulated traffic, so ins+OpPop is dead.
func purePush(ins Instr) bool {
	switch ins.Op {
	case OpConst, OpNull, OpLoadLocal, OpLoadThis, OpDup:
		return true
	}
	return false
}

// foldArith mirrors machine.arith for two integer constants. ok is
// false when the operation must be left to the runtime (div/mod zero).
func foldArith(op Op, x, y int64) (int64, bool) {
	b := func(cond bool) (int64, bool) {
		if cond {
			return 1, true
		}
		return 0, true
	}
	switch op {
	case OpAdd:
		return x + y, true
	case OpSub:
		return x - y, true
	case OpMul:
		return x * y, true
	case OpDiv:
		if y == 0 {
			return 0, false
		}
		return x / y, true
	case OpMod:
		if y == 0 {
			return 0, false
		}
		return x % y, true
	case OpEq:
		return b(x == y)
	case OpNe:
		return b(x != y)
	case OpLt:
		return b(x < y)
	case OpLe:
		return b(x <= y)
	case OpGt:
		return b(x > y)
	case OpGe:
		return b(x >= y)
	}
	return 0, false
}

func isArith(op Op) bool {
	switch op {
	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return true
	}
	return false
}

// intConst returns the integer constant an OpConst pushes, if it is
// one (B==1 marks string constants).
func (p *Program) intConst(ins Instr) (int64, bool) {
	if ins.Op != OpConst || ins.B != 0 {
		return 0, false
	}
	return p.Consts[ins.A], true
}

// match finds the longest pattern starting at pc whose tail does not
// cross a jump target, returning the fused replacement and the window
// length. n == 0 means no match.
func match(p *Program, code []Instr, pc int, target []bool) (Instr, int) {
	w := func(n int) uint16 {
		var sum uint16
		for i := range n {
			sum += code[pc+i].W
		}
		return sum
	}
	free := func(n int) bool { // window tail free of jump targets
		for i := 1; i < n; i++ {
			if pc+i >= len(code) || target[pc+i] {
				return false
			}
		}
		return pc+n <= len(code)
	}
	i0 := code[pc]

	// Three-instruction windows first.
	if free(3) {
		i1, i2 := code[pc+1], code[pc+2]
		if x, ok := p.intConst(i0); ok {
			if y, ok := p.intConst(i1); ok && isArith(i2.Op) {
				if v, ok := foldArith(i2.Op, x, y); ok {
					return Instr{Op: OpConst, W: w(3), A: p.constant(v)}, 3
				}
			}
		}
		if i0.Op == OpDup && i1.Op == OpStoreLocal && i2.Op == OpPop {
			return Instr{Op: OpStoreLocal, W: w(3), A: i1.A}, 3
		}
		if i0.Op == OpLoadLocal && i1.Op == OpLoadLocal &&
			i2.Op == OpCall && i2.B == 2 && i0.A < 1<<15 && i1.A < 1<<15 {
			return Instr{Op: OpCallL2, W: w(3), A: i2.A, B: i0.A | i1.A<<16}, 3
		}
	}

	// Two-instruction windows.
	if free(2) {
		i1 := code[pc+1]
		if v, ok := p.intConst(i0); ok {
			switch i1.Op {
			case OpJmpFalse:
				if v != 0 {
					return Instr{Op: OpNop, W: w(2)}, 2
				}
				return Instr{Op: OpJmp, W: w(2), A: i1.A}, 2
			case OpJmpTrue:
				if v != 0 {
					return Instr{Op: OpJmp, W: w(2), A: i1.A}, 2
				}
				return Instr{Op: OpNop, W: w(2)}, 2
			case OpAdd:
				return Instr{Op: OpAddConst, W: w(2), A: i0.A}, 2
			}
		}
		if purePush(i0) && i1.Op == OpPop {
			return Instr{Op: OpNop, W: w(2)}, 2
		}
		if i0.Op == OpLoadLocal && i1.Op == OpLoadField && i1.B == 1 {
			return Instr{Op: OpLoadLocalField, W: w(2), A: i0.A, B: i1.A}, 2
		}
		if i0.Op == OpLoadLocal && i1.Op == OpCall && i1.B == 1 {
			return Instr{Op: OpCallL1, W: w(2), A: i1.A, B: i0.A}, 2
		}
		// A no-op folds its charge into the next instruction, making
		// collapsed branches free of dispatch entirely.
		if i0.Op == OpNop {
			fused := i1
			fused.W += i0.W
			return fused, 2
		}
	}
	return Instr{}, 0
}

// pass runs one rewrite pass over a code sequence, compacting it in
// place and renumbering jumps through the old→new pc map. The output
// never overtakes the input: it writes out[len(out)] with len(out) ≤ pc,
// and match reads only code[pc:pc+3].
func (pp *peepholer) pass(p *Program, code []Instr) ([]Instr, bool) {
	pp.target = jumpTargets(pp.target, code)
	pp.oldToNew = resize(pp.oldToNew, len(code)+1)
	target, oldToNew := pp.target, pp.oldToNew
	out := code[:0]
	changed := false
	for pc := 0; pc < len(code); {
		ins, n := match(p, code, pc, target)
		if n == 0 {
			ins, n = code[pc], 1
		} else {
			changed = true
		}
		for i := range n {
			oldToNew[pc+i] = int32(len(out))
		}
		out = append(out, ins)
		pc += n
	}
	oldToNew[len(code)] = int32(len(out))
	if !changed {
		return out, false
	}
	for i := range out {
		switch out[i].Op {
		case OpJmp, OpJmpFalse, OpJmpTrue:
			out[i].A = oldToNew[out[i].A]
		}
	}
	return out, true
}
