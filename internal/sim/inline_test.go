package sim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// inlinedAt lists, for each function the compiler inlines at the hot
// charge sites, the functions that must contain an inlined call to it:
// charge, the head of advance, at every site that charges cycles on
// the path of a simulated access, work unit, lock or atomic, and
// lineOf at every site that sends a single-line access straight to
// accessLine.
var inlinedAt = map[string][]string{
	"(*Thread).charge": {
		"(*Thread).advance",
		"(*Cache).accessLine",
		"(*Ctx).Advance",
		"(*Thread).compute",
		"(*Thread).sync",
		"(*Mutex).Lock",
		"(*Mutex).TryLock",
		"(*Mutex).Unlock",
		"(*Ctx).CAS",
		"(*Ctx).FAA",
	},
	"lineOf": {
		"(*Ctx).Read",
		"(*Ctx).Write",
		"(*Ctx).ReadAhead",
		"(*Ctx).WriteAhead",
		"(*Mutex).touch",
		"(*Ctx).CAS",
		"(*Ctx).FAA",
		"(*Ctx).AtomicLoad",
	},
}

var diagLine = regexp.MustCompile(`^(?:\./)?([^:\s]+\.go):(\d+):\d+: (.*)$`)

// TestChargeHeadInlined builds the package with -gcflags=-m and
// requires that the compiler reports charge and lineOf inlinable and
// inlines each at every site inlinedAt names, and that none of the
// charge sites other than advance itself calls advance: a change that
// pushes the head past Go's inlining budget, or a site that goes back
// to the out-of-line charge, fails here instead of slowing every
// simulated access.
func TestChargeHeadInlined(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the package with the go command")
	}
	goCmd, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	out, err := exec.Command(goCmd, "build", "-gcflags=-m", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	funcs, calls := packageFuncs(t)

	inlinable := map[string]bool{}
	found := map[string]map[string]bool{} // callee → callers
	for _, text := range strings.Split(string(out), "\n") {
		m := diagLine.FindStringSubmatch(text)
		if m == nil {
			continue
		}
		line, _ := strconv.Atoi(m[2])
		msg := m[3]
		for callee := range inlinedAt {
			switch {
			case msg == "inlining call to "+callee:
				if found[callee] == nil {
					found[callee] = map[string]bool{}
				}
				found[callee][funcs.at(filepath.Base(m[1]), line)] = true
			case msg == "can inline "+callee, strings.HasPrefix(msg, "can inline "+callee+" "):
				inlinable[callee] = true
			}
		}
	}
	for callee, sites := range inlinedAt {
		if !inlinable[callee] {
			t.Errorf("the compiler no longer reports %s inlinable", callee)
		}
		for _, site := range sites {
			if !found[callee][site] {
				t.Errorf("%s is not inlined in %s", callee, site)
			}
		}
	}
	for _, site := range inlinedAt["(*Thread).charge"] {
		if site != "(*Thread).advance" && calls[site]["advance"] {
			t.Errorf("%s calls advance instead of its head", site)
		}
	}
}

// funcSpans maps each file to the line spans of its functions.
type funcSpans map[string][]funcSpan

type funcSpan struct {
	name       string
	start, end int
}

// at names the function of file whose body holds line, or "".
func (fs funcSpans) at(file string, line int) string {
	for _, f := range fs[file] {
		if f.start <= line && line <= f.end {
			return f.name
		}
	}
	return ""
}

// packageFuncs parses the package's non-test files and returns every
// function's line span under the name the compiler's diagnostics use,
// with the names of the methods and functions each one calls.
func packageFuncs(t *testing.T) (funcSpans, map[string]map[string]bool) {
	t.Helper()
	fset := token.NewFileSet()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	spans := funcSpans{}
	calls := map[string]map[string]bool{}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn := fd.Name.Name
			if fd.Recv != nil {
				switch recv := fd.Recv.List[0].Type.(type) {
				case *ast.StarExpr:
					if id, ok := recv.X.(*ast.Ident); ok {
						fn = "(*" + id.Name + ")." + fn
					}
				case *ast.Ident:
					fn = recv.Name + "." + fn
				}
			}
			spans[name] = append(spans[name], funcSpan{fn, fset.Position(fd.Pos()).Line, fset.Position(fd.End()).Line})
			called := map[string]bool{}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if ce, ok := n.(*ast.CallExpr); ok {
					switch fun := ce.Fun.(type) {
					case *ast.SelectorExpr:
						called[fun.Sel.Name] = true
					case *ast.Ident:
						called[fun.Name] = true
					}
				}
				return true
			})
			calls[fn] = called
		}
	}
	return spans, calls
}
