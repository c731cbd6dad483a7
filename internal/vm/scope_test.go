package vm

import "testing"

// shadowSrc reads and writes shadowed names: a body local over a
// parameter, a nested block over the local, a loop body local, and a
// for-init name declared again after the loop.
const shadowSrc = `
int f(int x) {
    print("param", x);
    int x = x + 10;
    print("local", x);
    {
        int x = x * 2;
        print("inner", x);
        x = x + 1;
        print("inner", x);
    }
    print("local", x);
    for (int i = 0; i < 2; i = i + 1) {
        int x = i;
        print("loop", x);
    }
    int i = 100;
    print("after", i, x);
    return x;
}

int main() {
    print("main", f(1));
    return 0;
}
`

// TestShadowingAcrossEngines requires the VM at -O and at -no-opt and
// the interpreter to resolve every name to its innermost binding.
func TestShadowingAcrossEngines(t *testing.T) {
	const want = "param 1\nlocal 11\ninner 22\ninner 23\nlocal 11\nloop 0\nloop 1\nafter 100 11\nmain 11\n"
	engines := []struct {
		name string
		run  func() (Result, error)
	}{
		{"vm -O", func() (Result, error) { return execute(shadowSrc, Options{}, Config{}) }},
		{"vm -no-opt", func() (Result, error) { return execute(shadowSrc, Options{NoOpt: true}, Config{}) }},
		{"interp", func() (Result, error) { return interpret(shadowSrc, Config{}) }},
	}
	for _, e := range engines {
		r, err := e.run()
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		if r.Output != want {
			t.Errorf("%s printed:\n%s\nwant:\n%s", e.name, r.Output, want)
		}
	}
}
