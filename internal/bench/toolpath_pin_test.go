package bench

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"amplify/internal/cc"
	"amplify/internal/core"
	"amplify/internal/mccgen"
	"amplify/internal/obsv/obsvpin"
	"amplify/internal/vet"
	"amplify/internal/vm"
)

// toolpathSums pins the tool path's outputs on every program below.
// Regenerate with `go test ./internal/bench -run TestToolPathPinned
// -update-observe` only when an output change is intended.
var toolpathSums = filepath.Join("..", "..", "testdata", "toolpath", "SHA256SUMS")

// bigSourcePrograms draws the benchmark's big-source programs exactly
// as its setup does: the same catalog seed and generator ranges.
func bigSourcePrograms() []string {
	rng := rand.New(rand.NewSource(20010901))
	out := make([]string, 120)
	for i := range out {
		out[i] = mccgen.Generate(mccgen.Config{
			Seed:       rng.Int63(),
			MaxClasses: 8 + rng.Intn(57),
			MaxFields:  4 + rng.Intn(9),
			Iterations: 1 + rng.Intn(2),
		})
	}
	return out
}

// goStrings returns the string literals bound to name in a Go source
// file: a constant's value, or the elements of a []string literal.
func goStrings(t *testing.T, file, name string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	lit := func(e ast.Expr) {
		if b, ok := e.(*ast.BasicLit); ok && b.Kind == token.STRING {
			s, err := strconv.Unquote(b.Value)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, s)
		}
	}
	bound := func(e ast.Expr) {
		if cl, ok := e.(*ast.CompositeLit); ok {
			for _, el := range cl.Elts {
				lit(el)
			}
			return
		}
		lit(e)
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ValueSpec:
			for i, id := range n.Names {
				if id.Name == name && i < len(n.Values) {
					bound(n.Values[i])
				}
			}
		case *ast.AssignStmt:
			for i, l := range n.Lhs {
				if id, ok := l.(*ast.Ident); ok && id.Name == name && i < len(n.Rhs) {
					bound(n.Rhs[i])
				}
			}
		}
		return true
	})
	if len(out) == 0 {
		t.Fatalf("%s: no string literals bound to %s", file, name)
	}
	return out
}

// embeddedPrograms are the MiniCC programs the repository carries: the
// tree and escape corpus sources this package builds, the Car program
// of examples/cartree, and the vet fuzz seeds (inline and committed;
// the VM fuzz target shares the inline list).
func embeddedPrograms(t *testing.T) map[string]string {
	progs := map[string]string{
		"esc/builder/48": escBuilderSource(48),
		"esc/builder/96": escBuilderSource(96),
		"esc/msgring/16": escRingSource(16),
		"esc/msgring/48": escRingSource(48),
		"obsv/tree":      treeSource(4, 30, e2eDepth),
	}
	for _, threads := range e2eThreadGrid {
		progs[fmt.Sprintf("tree/t%d", threads)] = treeSource(threads, 480/threads, e2eDepth)
	}
	for _, trees := range []int{24, 96} {
		progs[fmt.Sprintf("esc/treechurn/%d", trees)] = treeSource(escThreads, trees, e2eDepth)
	}
	progs["car"] = goStrings(t, filepath.Join("..", "..", "examples", "cartree", "main.go"), "carProgram")[0]
	vetDir := filepath.Join("..", "vet")
	for i, s := range goStrings(t, filepath.Join(vetDir, "fuzz_test.go"), "seeds") {
		progs[fmt.Sprintf("fuzzvet/seed%d", i)] = s
	}
	corpus := filepath.Join(vetDir, "testdata", "fuzz", "FuzzVet")
	entries, err := os.ReadDir(corpus)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(corpus, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		_, quoted, _ := strings.Cut(strings.TrimSpace(string(raw)), "\nstring(")
		src, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		progs["fuzzvet/"+e.Name()] = src
	}
	have := map[string]bool{}
	for _, src := range progs {
		have[src] = true
	}
	for name, src := range vetTestPrograms(t, vetDir) {
		if !have[src] {
			have[src] = true
			progs[name] = src
		}
	}
	return progs
}

// vetTestPrograms returns the whole programs the Go test files in dir
// analyze inline, named "vettest/<function>/<n>". A program is a
// maximal string expression that folds to source containing "main(":
// folding follows string literals, `+`, package-level string
// constants, a field of the enclosing function's table of cases (one
// program per case) and calls of source builders whose body is one
// return statement.
func vetTestPrograms(t *testing.T, dir string) map[string]string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	consts := map[string]ast.Expr{}
	builders := map[string]*ast.FuncDecl{}
	var decls []*ast.FuncDecl
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for i, id := range vs.Names {
							if i < len(vs.Values) {
								consts[id.Name] = vs.Values[i]
							}
						}
					}
				}
			case *ast.FuncDecl:
				decls = append(decls, d)
				if len(d.Body.List) == 1 {
					builders[d.Name.Name] = d
				}
			}
		}
	}
	var fold func(e ast.Expr, fn *ast.FuncDecl, env map[string][]string) ([]string, bool)
	// caseField folds field of every element of fn's tables of cases.
	caseField := func(fn *ast.FuncDecl, field string) ([]string, bool) {
		var out []string
		ok := false
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			cl, isLit := n.(*ast.CompositeLit)
			if !isLit {
				return true
			}
			at, isArray := cl.Type.(*ast.ArrayType)
			if !isArray {
				return true
			}
			st, isStruct := at.Elt.(*ast.StructType)
			if !isStruct {
				return true
			}
			pos := -1
			i := 0
			for _, fl := range st.Fields.List {
				for _, id := range fl.Names {
					if id.Name == field {
						pos = i
					}
					i++
				}
			}
			if pos < 0 {
				return true
			}
			for _, el := range cl.Elts {
				if row, isRow := el.(*ast.CompositeLit); isRow && pos < len(row.Elts) {
					if vals, foldable := fold(row.Elts[pos], fn, nil); foldable {
						out, ok = append(out, vals...), true
					}
				}
			}
			return false
		})
		return out, ok
	}
	fold = func(e ast.Expr, fn *ast.FuncDecl, env map[string][]string) ([]string, bool) {
		switch e := e.(type) {
		case *ast.BasicLit:
			if e.Kind != token.STRING {
				return nil, false
			}
			s, err := strconv.Unquote(e.Value)
			return []string{s}, err == nil
		case *ast.ParenExpr:
			return fold(e.X, fn, env)
		case *ast.Ident:
			if vals, ok := env[e.Name]; ok {
				return vals, true
			}
			if c, ok := consts[e.Name]; ok {
				return fold(c, fn, nil)
			}
		case *ast.BinaryExpr:
			if e.Op != token.ADD {
				return nil, false
			}
			xs, ok := fold(e.X, fn, env)
			if !ok {
				return nil, false
			}
			ys, ok := fold(e.Y, fn, env)
			if !ok {
				return nil, false
			}
			var out []string
			for _, x := range xs {
				for _, y := range ys {
					out = append(out, x+y)
				}
			}
			return out, true
		case *ast.SelectorExpr:
			if _, ok := e.X.(*ast.Ident); ok && fn != nil {
				return caseField(fn, e.Sel.Name)
			}
		case *ast.CallExpr:
			id, ok := e.Fun.(*ast.Ident)
			if !ok {
				return nil, false
			}
			b := builders[id.Name]
			if b == nil {
				return nil, false
			}
			ret, ok := b.Body.List[0].(*ast.ReturnStmt)
			if !ok || len(ret.Results) != 1 {
				return nil, false
			}
			var params []string
			for _, fl := range b.Type.Params.List {
				for _, pid := range fl.Names {
					params = append(params, pid.Name)
				}
			}
			if len(params) != len(e.Args) {
				return nil, false
			}
			bound := map[string][]string{}
			for i, arg := range e.Args {
				vals, ok := fold(arg, fn, env)
				if !ok {
					return nil, false
				}
				bound[params[i]] = vals
			}
			return fold(ret.Results[0], b, bound)
		}
		return nil, false
	}
	progs := map[string]string{}
	seen := map[string]bool{}
	for _, fn := range decls {
		n := 0
		ast.Inspect(fn.Body, func(node ast.Node) bool {
			e, ok := node.(ast.Expr)
			if !ok {
				return true
			}
			vals, ok := fold(e, fn, nil)
			if !ok {
				// A literal inside a larger expression that does not
				// fold is a fragment, not a program.
				_, partial := e.(*ast.BinaryExpr)
				return !partial
			}
			for _, v := range vals {
				if strings.Contains(v, "main(") && !seen[v] {
					seen[v] = true
					progs[fmt.Sprintf("vettest/%s/%d", fn.Name.Name, n)] = v
					n++
				}
			}
			return false
		})
	}
	return progs
}

// bytecode renders every function's instruction stream with all
// operands and charges, plus the site table the C operands index.
func bytecode(p *vm.Program) string {
	var b strings.Builder
	for _, fn := range p.Fns {
		fmt.Fprintf(&b, "%s params=%d slots=%d\n", fn.Name, fn.Params, fn.Slots)
		for _, ins := range fn.Code {
			fmt.Fprintf(&b, "%d %d %d %d %d\n", ins.Op, ins.W, ins.A, ins.B, ins.C)
		}
	}
	fmt.Fprintf(&b, "sites %q\n", p.Sites)
	return b.String()
}

// compiled is the -O bytecode of source, or the error that stopped it.
func compiled(src string) string {
	prog, err := cc.Parse(src)
	if err == nil {
		err = cc.Analyze(prog)
	}
	if err != nil {
		return "error: " + err.Error()
	}
	p, err := vm.CompileOpts(prog, vm.Options{})
	if err != nil {
		return "error: " + err.Error()
	}
	return bytecode(p)
}

// toolPathOutputs runs src through the benchmark's tool path — vet and
// escape analysis on one tree, the analysis-driven rewrite, and -O
// compilation of both programs — and returns every output by name.
func toolPathOutputs(name, src string) map[string][]byte {
	out := map[string][]byte{}
	put := func(what, s string) { out[name+"/"+what] = []byte(s) }
	prog, err := cc.Parse(src)
	if err == nil {
		err = cc.Analyze(prog)
	}
	if err != nil {
		put("front", err.Error())
		return out
	}
	res := vet.Check(prog)
	put("vet", res.String())
	esc, err := vet.Escape(prog).JSON(name)
	if err != nil {
		esc = []byte(err.Error())
	}
	put("escape.json", string(esc))
	auto := map[string]string{}
	for _, e := range res.Ineligible() {
		auto[e.Class] = e.Reason
	}
	amp, rep, err := core.Rewrite(src, core.Options{AutoExclude: auto, Escape: true})
	if err != nil {
		put("rewrite", "error: "+err.Error())
	} else {
		put("rewrite", amp)
		put("rewrite.report", rep.String())
		put("bytecode.amplified", compiled(amp))
	}
	put("bytecode", compiled(src))
	return out
}

// TestToolPathPinned pins vet diagnostics, escape reports, rewritten
// source and -O bytecode on the big-source programs and the embedded
// corpus, so work-saving changes to the front end, the analyses and the
// compiler are shown to leave every output byte-identical. -short
// checks the embedded corpus only.
func TestToolPathPinned(t *testing.T) {
	progs := embeddedPrograms(t)
	prefix := "embedded/"
	if !testing.Short() {
		prefix = ""
		for i, src := range bigSourcePrograms() {
			progs[fmt.Sprintf("big-source/%03d", i)] = src
		}
	}
	got := map[string][]byte{}
	for name, src := range progs {
		if !strings.HasPrefix(name, "big-source/") {
			name = "embedded/" + name
		}
		for k, v := range toolPathOutputs(name, src) {
			got[k] = v
		}
	}
	obsvpin.Check(t, toolpathSums, prefix, got)
}

// TestToolPathAllocs bounds the host allocations of the two layers the
// big-source workload leans on, averaged over its 120 programs: -O
// compilation of one program, and vet plus escape analysis of one tree.
func TestToolPathAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts over 120 programs")
	}
	srcs := bigSourcePrograms()
	analyzed := func(src string) *cc.Program {
		prog := cc.MustParse(src)
		if err := cc.Analyze(prog); err != nil {
			t.Fatal(err)
		}
		return prog
	}
	var compile, vetEscape float64
	for _, src := range srcs {
		prog := analyzed(src)
		compile += testing.AllocsPerRun(1, func() {
			if _, err := vm.CompileOpts(prog, vm.Options{}); err != nil {
				t.Fatal(err)
			}
		})
		// Each call gets a tree no analysis has seen yet.
		trees := []*cc.Program{analyzed(src), analyzed(src)}
		vetEscape += testing.AllocsPerRun(1, func() {
			prog := trees[0]
			trees = trees[1:]
			vet.Check(prog)
			vet.Escape(prog)
		})
	}
	const maxCompile, maxVetEscape = 725, 1330
	n := float64(len(srcs))
	t.Logf("per program: compile %.0f allocs, vet+escape %.0f allocs", compile/n, vetEscape/n)
	if compile/n > maxCompile {
		t.Errorf("compile: %.0f allocs per program, want at most %d", compile/n, maxCompile)
	}
	if vetEscape/n > maxVetEscape {
		t.Errorf("vet+escape: %.0f allocs per program, want at most %d", vetEscape/n, maxVetEscape)
	}
}
