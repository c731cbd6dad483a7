package core

import (
	"fmt"
	"strings"
	"testing"

	"amplify/internal/cc"
	"amplify/internal/vm"
)

// FuzzRewrite checks that the pre-processor never panics, always
// produces re-parseable output for any analyzable input (RewriteProgram
// verifies that internally and returns an error otherwise), and hands
// back a tree that compiles exactly as that output does.
func FuzzRewrite(f *testing.F) {
	f.Add(rootChildSrc, false, false, false)
	f.Add(rootChildSrc, true, false, false)
	f.Add(rootChildSrc, false, true, false)
	f.Add(rootChildSrc, false, false, true)
	f.Add("class A { public: A() { } int x; }; int main() { return 0; }", false, false, false)
	f.Add("int main(){print(\"caf\xe9\");return 0;}", false, false, false)
	f.Fuzz(func(t *testing.T, src string, arraysOnly, flagMode, escape bool) {
		opt := Options{ArraysOnly: arraysOnly, Escape: escape}
		if flagMode {
			opt.Mode = ModeFlag
		}
		prog, err := cc.Parse(src)
		if err == nil {
			err = cc.Analyze(prog)
		}
		if err != nil {
			return
		}
		out, tree, _, err := RewriteProgram(prog, opt)
		if err != nil {
			return
		}
		CheckReturnedTree(t, out, tree)
		// A successful rewrite must be stable under a second pass.
		if _, _, err := Rewrite(out, opt); err != nil {
			t.Fatalf("second pass failed: %v\n%s", err, out)
		}
	})
}

// CheckReturnedTree fails t unless the tree RewriteProgram returned
// compiles to the same program as a fresh parse of the output text:
// the same functions and code, constants, strings, names and
// allocation sites. Callers run that tree instead of parsing the text.
func CheckReturnedTree(t testing.TB, out string, tree *cc.Program) {
	t.Helper()
	got, want := bytecode(tree), bytecode(cc.MustAnalyze(cc.MustParse(out)))
	if got == want {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; ; i++ {
		if i == len(g) || i == len(w) || g[i] != w[i] {
			t.Fatalf("returned tree compiles unlike its output text at line %d: got %q, want %q",
				i+1, g[i:min(i+1, len(g))], w[i:min(i+1, len(w))])
		}
	}
}

// bytecode renders the -O compilation of prog, or the error that
// stopped it, without the pointers into the tree it came from.
func bytecode(prog *cc.Program) string {
	p, err := vm.CompileOpts(prog, vm.Options{})
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	for _, fn := range p.Fns {
		class := ""
		if fn.Class != nil {
			class = fn.Class.Name
		}
		fmt.Fprintf(&b, "%s class=%s kind=%d params=%d slots=%d\n", fn.Name, class, fn.Kind, fn.Params, fn.Slots)
		for _, ins := range fn.Code {
			fmt.Fprintf(&b, "%d %d %d %d %d\n", ins.Op, ins.W, ins.A, ins.B, ins.C)
		}
	}
	fmt.Fprintf(&b, "consts %v\nstrs %q\nsites %q\n", p.Consts, p.Strs, p.Sites)
	return b.String()
}
