package vm

import (
	"sync"
	"testing"
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
