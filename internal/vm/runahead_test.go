package vm

import (
	"sync"
	"testing"

	"amplify/internal/alloc"
	"amplify/internal/sim"
)

// TestThreadedStepLimitPinned pins where MaxSteps trips. The budget is
// shared by all threads and counted in the order the simulator executes
// instructions (see target.Config.MaxSteps). An untraced threaded run
// lets each spinning thread run ahead through its private loop, so the
// limit trips in a different instruction than in a traced run, which
// executes in virtual-time order. Either point is the same on every
// run, sequential or concurrent, and a single-threaded program trips
// at the same instruction traced or not.
func TestThreadedStepLimitPinned(t *testing.T) {
	const spin = `
int spin(int k) {
    int x = 0;
    while (1) { x = x + k; }
    return x;
}
`
	const prefix = "vm: step limit exceeded (100000); non-terminating program? "
	for _, tc := range []struct {
		name, main string
		traced     bool
		want       string
	}{
		{"threaded", "int main() { spawn spin(1); spawn spin(2); join; return 0; }", false, "(at spin@4: add)"},
		{"threaded/traced", "int main() { spawn spin(1); spawn spin(2); join; return 0; }", true, "(at spin@2: loadl)"},
		{"single", "int main() { return spin(1); }", false, "(at spin@5: storel)"},
		{"single/traced", "int main() { return spin(1); }", true, "(at spin@5: storel)"},
	} {
		cfg := Config{MaxSteps: 100_000}
		if tc.traced {
			cfg.Tracer = dropEvents{}
		}
		errText := func() string {
			_, err := execute(spin+tc.main, Options{}, cfg)
			if err == nil {
				return "<nil>"
			}
			return err.Error()
		}
		if got := errText(); got != prefix+tc.want {
			t.Errorf("%s: error %q, want %q", tc.name, got, prefix+tc.want)
		}
		// Eight concurrent runs, as a parallel harness makes them.
		var wg sync.WaitGroup
		errs := make([]string, 8)
		for i := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = errText()
			}()
		}
		wg.Wait()
		for i, got := range errs {
			if got != prefix+tc.want {
				t.Errorf("%s: concurrent run %d: error %q, want %q", tc.name, i, got, prefix+tc.want)
			}
		}
	}
}

// TestPrivateOpsMakeNoEngineCall runs a short function for every opcode
// in privateOp, as main under a recording tracer, and requires the
// run to make no engine call besides the per-unit work charges: the
// stream holds only thread start and done and function enter and exit,
// no cache, lock or allocator counter moves, and the makespan is the
// number of units executed. Run-ahead relies on it: the threaded VM
// runs these opcodes without syncing.
func TestPrivateOpsMakeNoEngineCall(t *testing.T) {
	base, err := analyze("int f(int a, int b) { return a; } int main() { return 0; }")
	if err != nil {
		t.Fatal(err)
	}
	i := func(op Op, a, b int32) Instr { return Instr{Op: op, W: 1, A: a, B: b} }
	type snippet struct {
		code  []Instr
		units int64 // instructions executed, the callee's included
	}
	snippets := map[Op][]snippet{}
	add := func(units int64, code ...Instr) {
		for _, ins := range code {
			snippets[ins.Op] = append(snippets[ins.Op], snippet{code, units})
		}
	}
	p, err := Compile(base)
	if err != nil {
		t.Fatal(err)
	}
	f, seven, three, str := int32(p.FuncID["f"]), int32(len(p.Consts)), int32(len(p.Consts)+1), int32(len(p.Strs))
	add(2, i(OpNop, 0, 0), i(OpRetVoid, 0, 0))
	add(2, i(OpConst, seven, 0), i(OpRet, 0, 0))
	add(2, i(OpConst, str, 1), i(OpRet, 0, 0))
	add(2, i(OpNull, 0, 0), i(OpRet, 0, 0))
	add(2, i(OpLoadLocal, 0, 0), i(OpRet, 0, 0))
	add(3, i(OpConst, seven, 0), i(OpStoreLocal, 1, 0), i(OpRetVoid, 0, 0))
	add(2, i(OpLoadThis, 0, 0), i(OpRet, 0, 0))
	for _, op := range []Op{OpAdd, OpSub, OpMul, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe} {
		add(4, i(OpConst, seven, 0), i(OpConst, three, 0), i(op, 0, 0), i(OpRet, 0, 0))
	}
	add(3, i(OpConst, seven, 0), i(OpNeg, 0, 0), i(OpRet, 0, 0))
	add(3, i(OpConst, seven, 0), i(OpNot, 0, 0), i(OpRet, 0, 0))
	add(2, i(OpJmp, 2, 0), i(OpNop, 0, 0), i(OpRetVoid, 0, 0))
	add(4, i(OpConst, seven, 0), i(OpJmpFalse, 3, 0), i(OpNop, 0, 0), i(OpRetVoid, 0, 0))
	add(3, i(OpConst, seven, 0), i(OpJmpTrue, 3, 0), i(OpNop, 0, 0), i(OpRetVoid, 0, 0))
	add(3, i(OpConst, seven, 0), i(OpDup, 0, 0), i(OpRet, 0, 0))
	add(3, i(OpConst, seven, 0), i(OpPop, 0, 0), i(OpRetVoid, 0, 0))
	add(3, i(OpConst, seven, 0), i(OpAddConst, three, 0), i(OpRet, 0, 0))
	add(6, i(OpConst, seven, 0), i(OpConst, three, 0), i(OpCall, f, 2), i(OpRet, 0, 0))
	add(4, i(OpCallL1, f, 0), i(OpRet, 0, 0))
	add(4, i(OpCallL2, f, 1<<16), i(OpRet, 0, 0))
	for op := range privateOp {
		if privateOp[op] && len(snippets[Op(op)]) == 0 {
			t.Errorf("private opcode %s has no snippet", Op(op))
		}
	}
	for op, list := range snippets {
		for _, sn := range list {
			p, err := Compile(base)
			if err != nil {
				t.Fatal(err)
			}
			p.Consts = append(p.Consts, 7, 3)
			p.Strs = append(p.Strs, "s")
			main := p.Fns[p.FuncID["main"]]
			main.Code, main.Slots = sn.code, 2
			rec := sim.Recorder{Mask: sim.AllEvents}
			res, err := Run(p, Config{Tracer: &rec})
			if err != nil {
				t.Fatalf("%s: %v", op, err)
			}
			for _, ev := range rec.Events {
				switch ev.Kind {
				case sim.EvThreadStart, sim.EvThreadDone, sim.EvEnter, sim.EvExit:
				default:
					t.Errorf("%s: run emitted %s", op, ev.Kind)
				}
			}
			if res.Makespan != sn.units || res.Sim != (sim.Stats{Makespan: sn.units}) || res.Alloc != (alloc.Stats{}) {
				t.Errorf("%s: makespan %d, want %d; sim %+v; alloc %+v", op, res.Makespan, sn.units, res.Sim, res.Alloc)
			}
		}
	}
}
