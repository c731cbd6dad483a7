package bench

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"amplify/internal/core"
	"amplify/internal/interp"
	"amplify/internal/vm"
)

// TestVMCellsMatchInterp cross-checks every quick-size VM cell — the
// e2e/*, escape/* and export/* programs, each over its cell's allocator
// — against the tree-walking interpreter, plus the root package's two
// runnable CLI pin inputs, plain and amplified. Both engines share the
// allocator, pool and simulator layers, so output, exit code and heap
// allocation count must agree exactly, and the makespan to within the
// engines' 2x cost-accounting band.
func TestVMCellsMatchInterp(t *testing.T) {
	if testing.Short() {
		// The -race job runs -short: the VM half of these runs is under
		// it already (TestEndToEndExperiment, TestRunAllExperiments,
		// the export tests), and the interpreter half would add 40 s.
		t.Skip("runs every quick VM cell on both engines")
	}
	r := NewRunner(true)
	var progs []vmProgram
	for _, row := range e2eRows() {
		for _, th := range e2eThreadGrid {
			progs = append(progs, r.e2eProgram(row, th))
		}
	}
	for _, w := range r.escWorkloads() {
		progs = append(progs, escapeProgram(w, false), escapeProgram(w, true))
	}
	progs = append(progs, profiledProgram)

	// The list above must be every VM cell the quick experiments read.
	var want, got []string
	for _, name := range Names() {
		e, err := lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range e.cells(r) {
			if strings.HasPrefix(c.key, "e2e/") || strings.HasPrefix(c.key, "escape/") {
				want = append(want, c.key)
			}
		}
	}
	want = append(want, profiledProgram.key)
	for _, p := range progs {
		got = append(got, p.key)
	}
	slices.Sort(want)
	slices.Sort(got)
	if !slices.Equal(slices.Compact(want), got) {
		t.Fatalf("cross-checked programs %v, want the quick VM cells %v", got, want)
	}

	for name, src := range map[string]string{
		"v001":  goStrings(t, filepath.Join("..", "..", "cli_test.go"), "cliProgram")[0],
		"clean": cliPinInput(t, "clean"),
	} {
		progs = append(progs,
			vmProgram{"cli/" + name, src, nil, ""},
			vmProgram{"cli/" + name + "/amplified", src, &core.Options{}, ""})
	}

	for _, p := range progs {
		vres, err := resultOf[vm.Result](r, r.vmCell(p))
		if err != nil {
			t.Fatalf("%s: vm: %v", p.key, err)
		}
		prog, err := p.tree()
		if err != nil {
			t.Fatalf("%s: %v", p.key, err)
		}
		ires, err := interp.Run(prog, vm.Config{Strategy: p.strategy})
		if err != nil {
			t.Fatalf("%s: interp: %v", p.key, err)
		}
		if ires.Output != vres.Output {
			t.Errorf("%s: outputs differ: vm %q, interp %q", p.key, vres.Output, ires.Output)
		}
		if ires.ExitCode != vres.ExitCode {
			t.Errorf("%s: exit code vm %d, interp %d", p.key, vres.ExitCode, ires.ExitCode)
		}
		if ires.Alloc.Allocs != vres.Alloc.Allocs {
			t.Errorf("%s: heap allocations vm %d, interp %d", p.key, vres.Alloc.Allocs, ires.Alloc.Allocs)
		}
		if ratio := float64(vres.Makespan) / float64(ires.Makespan); ratio < 0.5 || ratio > 2 {
			t.Errorf("%s: makespan ratio %.2f (vm %d, interp %d) outside the 2x band",
				p.key, ratio, vres.Makespan, ires.Makespan)
		}
	}
}

// cliPinInput returns the program the root package's cliPinInputs map
// holds under name.
func cliPinInput(t *testing.T, name string) string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("..", "..", "cli_pin_test.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var src string
	ast.Inspect(f, func(n ast.Node) bool {
		if kv, ok := n.(*ast.KeyValueExpr); ok {
			k, kok := kv.Key.(*ast.BasicLit)
			v, vok := kv.Value.(*ast.BasicLit)
			if kok && vok && k.Value == strconv.Quote(name) {
				src, err = strconv.Unquote(v.Value)
			}
		}
		return true
	})
	if err != nil || src == "" {
		t.Fatalf("cli_pin_test.go: no cliPinInputs program %q (%v)", name, err)
	}
	return src
}
