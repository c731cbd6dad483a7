package vm

import (
	"reflect"
	"strings"
	"testing"

	"amplify/internal/cc"
	"amplify/internal/interp"
	"amplify/internal/sim"
)

// dropEvents is a tracer that discards every event; attaching it turns
// the simulator's run-ahead off without observing anything.
type dropEvents struct{}

func (dropEvents) Event(sim.Event) {}

// FuzzVMDiff feeds arbitrary programs through the VM at both
// optimization levels and through the tree-walking interpreter, and
// requires agreement: anything the front end accepts must either run
// identically everywhere or fail everywhere.
// Between -O and -no-opt the agreement is exact down to the simulated
// makespan and allocation counters: the peephole pass carries the work
// charge of what it fuses, so optimization must be invisible to the
// simulated machine. A program that spawns also runs at -O with a
// tracer that drops every event, which charges every unit as Work(1)
// instead of running ahead; its counters must match exactly too. Seeds
// mirror internal/vet's FuzzVet corpus.
func FuzzVMDiff(f *testing.F) {
	seeds := []string{
		"",
		"int main() { return 0; }",
		"class A { public: A() { } ~A() { } int x; }; int main() { A* a = new A(); delete a; return a->x; }",
		"class B { B(int n) { b = new char[n]; } ~B() { delete[] b; } char* b; }; int main() { return 0; }",
		"void w(int i) { print(i); } int main() { spawn w(1); join; return 0; }",
		"int main() { for (int i = 0; i < 3; i = i + 1) { while (i) { i = i - 1; } } return 0; }",
		"int main() { return 1 + 2 * (3 - 4) / 5 % 6; }",
		"class C { C() { x = new(xShadow) C(); } ~C() { x->~C(); } C* x; C* xShadow; }; int main() { return 0; }",
		`int main() { print("hi\n\t\\", 1 && 0 || !2); return 0; }`,
		"/* comment */ int main() { // line\n return 0; }",
		// Threads race on one field: how often each loops depends on
		// how their loads and stores interleave, the printed line does
		// not.
		"class C { public: C() { n = 0; } int n; }; void bump(C* c) { while (c->n < 40) { c->n = c->n + 1; } } int main() { C* c = new C(); spawn bump(c); spawn bump(c); spawn bump(c); join; print(c->n >= 40); delete c; return 0; }",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := cc.Parse(src)
		if err != nil {
			return
		}
		if err := cc.Analyze(prog); err != nil {
			return
		}

		// A low step budget keeps pathological fuzz programs fast; runs
		// that exhaust it are skipped rather than compared, because the
		// engines count steps differently by design.
		const maxSteps = 200_000
		stepLimited := func(err error) bool {
			return err != nil && strings.Contains(err.Error(), "step limit exceeded")
		}

		runAt := func(o Options, tr sim.Tracer) (Result, error) {
			p, err := CompileOpts(prog, o)
			if err != nil {
				return Result{}, err
			}
			return Run(p, Config{MaxSteps: maxSteps, Tracer: tr})
		}
		opt, err := runAt(Options{}, nil)
		noOpt, noOptErr := runAt(Options{NoOpt: true}, nil)
		if stepLimited(err) || stepLimited(noOptErr) {
			t.Skip("step limit")
		}

		if prog.UsesThreads {
			unit, unitErr := runAt(Options{}, dropEvents{})
			if (err == nil) != (unitErr == nil) {
				t.Fatalf("run-ahead changed failure: err=%v, per-unit err=%v\nprogram:\n%s", err, unitErr, src)
			}
			if err == nil && (!reflect.DeepEqual(opt.Counters, unit.Counters) || opt.Output != unit.Output || opt.ExitCode != unit.ExitCode) {
				t.Fatalf("run-ahead changed the run:\nrun-ahead: exit=%d out=%q %+v\nper unit:  exit=%d out=%q %+v\nprogram:\n%s",
					opt.ExitCode, opt.Output, opt.Counters, unit.ExitCode, unit.Output, unit.Counters, src)
			}
		}

		if (err == nil) != (noOptErr == nil) {
			t.Fatalf("optimization changed failure: -O err=%v, -no-opt err=%v\nprogram:\n%s", err, noOptErr, src)
		}
		if err == nil {
			// -O vs -no-opt: exact agreement, simulated time included.
			if opt.Output != noOpt.Output || opt.ExitCode != noOpt.ExitCode {
				t.Fatalf("optimization changed behavior:\n-O: exit=%d out=%q\n-no-opt: exit=%d out=%q\nprogram:\n%s",
					opt.ExitCode, opt.Output, noOpt.ExitCode, noOpt.Output, src)
			}
			if opt.Makespan != noOpt.Makespan {
				t.Fatalf("optimization changed makespan: %d vs %d\nprogram:\n%s",
					opt.Makespan, noOpt.Makespan, src)
			}
			if opt.Alloc != noOpt.Alloc {
				t.Fatalf("optimization changed allocation stats: %+v vs %+v\nprogram:\n%s",
					opt.Alloc, noOpt.Alloc, src)
			}
		}

		// VM vs interpreter, at both optimization levels: same observable
		// behavior (output order can differ between engines only through
		// thread interleaving, so compare sorted lines).
		iRes, iErr := interp.Run(prog, Config{MaxSteps: maxSteps})
		if stepLimited(iErr) {
			t.Skip("step limit")
		}
		for _, lvl := range []struct {
			name string
			res  Result
			err  error
		}{{"-O", opt, err}, {"-no-opt", noOpt, noOptErr}} {
			if (lvl.err == nil) != (iErr == nil) {
				t.Fatalf("engines disagree on failure (%s): vm err=%v, interp err=%v\nprogram:\n%s", lvl.name, lvl.err, iErr, src)
			}
			if lvl.err != nil {
				continue
			}
			if sortedLines(lvl.res.Output) != sortedLines(iRes.Output) {
				t.Fatalf("engines disagree on output (%s):\nvm:\n%s\ninterp:\n%s\nprogram:\n%s",
					lvl.name, lvl.res.Output, iRes.Output, src)
			}
			if lvl.res.ExitCode != iRes.ExitCode {
				t.Fatalf("engines disagree on exit code (%s): vm=%d interp=%d\nprogram:\n%s",
					lvl.name, lvl.res.ExitCode, iRes.ExitCode, src)
			}
			if lvl.res.Alloc.Allocs != iRes.Alloc.Allocs || lvl.res.Alloc.Frees != iRes.Alloc.Frees {
				t.Fatalf("engines disagree on heap traffic (%s): vm=%d/%d interp=%d/%d\nprogram:\n%s",
					lvl.name, lvl.res.Alloc.Allocs, lvl.res.Alloc.Frees, iRes.Alloc.Allocs, iRes.Alloc.Frees, src)
			}
		}
	})
}
