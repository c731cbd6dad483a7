package obsv

import (
	"bytes"
	"strings"
	"testing"

	"amplify/internal/cc"
	"amplify/internal/sim"
	"amplify/internal/vm"
	"amplify/internal/workload"
)

// runVM parses, analyzes, compiles and runs src on the VM.
func runVM(src string, cfg vm.Config) (vm.Result, error) {
	p, err := vm.Compile(cc.MustAnalyze(cc.MustParse(src)))
	if err != nil {
		return vm.Result{}, err
	}
	return vm.Run(p, cfg)
}

const profSrc = `
int fib(int n) {
    if (n < 2) {
        return n;
    }
    return fib(n - 1) + fib(n - 2);
}

int burn(int k) {
    int s = 0;
    for (int i = 0; i < k; i = i + 1) {
        s = s + i * i;
    }
    return s;
}

int main() {
    int total = 0;
    for (int i = 0; i < 8; i = i + 1) {
        total = total + fib(12) + burn(200);
    }
    return total % 100;
}
`

func TestVMProfilerAttribution(t *testing.T) {
	p := NewProfiler()
	res, err := runVM(profSrc, vm.Config{Tracer: p})
	if err != nil {
		t.Fatal(err)
	}
	p.Finish(res.Makespan)
	attributed := totalAttributed(p)
	if attributed < res.Makespan*9/10 {
		t.Errorf("attributed %d of %d cycles (%.1f%%), want >= 90%%",
			attributed, res.Makespan, 100*float64(attributed)/float64(res.Makespan))
	}
	folded := p.Folded()
	for _, frame := range []string{"main ", "main;fib", "main;fib;fib", "main;burn"} {
		if !strings.Contains(folded, frame) {
			t.Errorf("folded stacks missing %q:\n%s", frame, folded)
		}
	}
}

func TestVMProfilerDoesNotChangeMakespan(t *testing.T) {
	plain, err := runVM(profSrc, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	profiled, err := runVM(profSrc, vm.Config{Tracer: NewProfiler()})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Makespan != profiled.Makespan {
		t.Errorf("profiling changed the makespan: %d vs %d", plain.Makespan, profiled.Makespan)
	}
}

// treeTrace runs the tree workload under a recorder and returns the
// result plus the recorded events.
func treeTrace(t *testing.T, strategy string, tracer sim.Tracer) workload.Result {
	t.Helper()
	res, err := workload.RunTree(strategy, workload.TreeConfig{
		Depth: 3, Trees: 400, Threads: 8, Processors: 8,
		Tracer: tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTraceShowsHeapLockSerialization is the paper's diagnosis as a
// trace assertion: under the global-lock allocator the Chrome export
// is full of lock-wait slices on the heap lock, while the Amplify
// pools show almost none (only the warmup misses that fall through to
// the underlying heap).
func TestTraceShowsHeapLockSerialization(t *testing.T) {
	mask := sim.MaskOf(sim.EvLockContended, sim.EvLockAcquire, sim.EvLockRelease)
	serialRec := &sim.Recorder{Max: 2_000_000, Mask: mask}
	treeTrace(t, "serial", serialRec)
	ampRec := &sim.Recorder{Max: 2_000_000, Mask: mask}
	treeTrace(t, "amplify", ampRec)

	slices := func(rec *sim.Recorder) int {
		n := 0
		for _, e := range rec.Snapshot() {
			if e.Kind == sim.EvLockContended {
				n++
			}
		}
		return n
	}
	serialWaits, ampWaits := slices(serialRec), slices(ampRec)
	if serialWaits == 0 {
		t.Fatal("global-lock allocator produced no lock-wait slices")
	}
	if ampWaits*10 >= serialWaits {
		t.Errorf("amplify waits %d not an order of magnitude below serial %d", ampWaits, serialWaits)
	}

	out, err := ChromeTraceSpans(serialRec.Snapshot(), 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := bytes.Count(out, []byte(`"ph":"b"`)); got != serialWaits {
		t.Errorf("chrome export has %d async begins, want %d", got, serialWaits)
	}
	if got := bytes.Count(out, []byte(`"ph":"e"`)); got != serialWaits {
		t.Errorf("chrome export has %d async ends, want %d", got, serialWaits)
	}
}

// TestTracingDoesNotChangeMakespan is the central guarantee: attaching
// a recorder must not move a single virtual timestamp.
func TestTracingDoesNotChangeMakespan(t *testing.T) {
	for _, strategy := range []string{"serial", "amplify"} {
		plain := treeTrace(t, strategy, nil)
		traced := treeTrace(t, strategy, &sim.Recorder{Max: 2_000_000})
		if plain.Makespan != traced.Makespan {
			t.Errorf("%s: tracing changed the makespan: %d vs %d", strategy, plain.Makespan, traced.Makespan)
		}
	}
}

// TestExportedTraceDeterministic re-runs the same simulation and
// demands byte-identical Chrome and JSONL exports.
func TestExportedTraceDeterministic(t *testing.T) {
	export := func() ([]byte, []byte) {
		rec := &sim.Recorder{Max: 2_000_000}
		treeTrace(t, "serial", rec)
		cj, err := ChromeTraceSpans(rec.Snapshot(), 8, nil)
		if err != nil {
			t.Fatal(err)
		}
		jl, err := JSONL(rec.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return cj, jl
	}
	c1, j1 := export()
	c2, j2 := export()
	if !bytes.Equal(c1, c2) {
		t.Error("chrome exports differ between identical runs")
	}
	if !bytes.Equal(j1, j2) {
		t.Error("JSONL exports differ between identical runs")
	}
}
