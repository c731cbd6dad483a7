package vet

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"amplify/internal/cc"
	"amplify/internal/mccgen"
	"amplify/internal/sim"
	"amplify/internal/vm"
)

func mustEscape(t *testing.T, src string) *EscapeReport {
	t.Helper()
	return Escape(analyzed(t, src))
}

func diagsWithCode(diags []Diag, code string) []Diag {
	var out []Diag
	for _, d := range diags {
		if d.Code == code {
			out = append(out, d)
		}
	}
	return out
}

// escPromote holds the canonical frame-promotion shape: a dedicated
// local, a direct delete, a benign method call in between, and a
// statically counted loop around the caller.
const escPromote = `class Node {
public:
    Node(int x) {
        v = x;
    }
    ~Node() {
    }
    int get() {
        return v;
    }
private:
    int v;
};

int churn(int d) {
    Node* p = new Node(d);
    int r = p->get();
    delete p;
    return r;
}

int main() {
    int t = 0;
    for (int i = 0; i < 10; i = i + 1) {
        t = t + churn(i);
    }
    print(t);
    return 0;
}
`

func TestEscapePromotesNonEscapingSite(t *testing.T) {
	r := mustEscape(t, escPromote)
	if len(r.Sites) != 1 {
		t.Fatalf("want 1 site, got %d:\n%s", len(r.Sites), r.String())
	}
	s := r.Sites[0]
	if s.Class != "Node" || s.Func != "churn" {
		t.Fatalf("site misattributed: %+v", s)
	}
	if s.Escape != EscNone {
		t.Fatalf("want non-escaping, got %s (%s)", s.Escape, s.Reason)
	}
	if !s.Promote || s.Local != "p" {
		t.Fatalf("want promotion via local p, got promote=%v local=%q reason=%q", s.Promote, s.Local, s.Reason)
	}
	if s.Bound != 10 {
		t.Fatalf("want bound 10 (caller loop trip count), got %d", s.Bound)
	}
	if !r.IsThreadLocal("Node") {
		t.Fatalf("Node should be thread-local in a single-threaded program")
	}
	if len(diagsWithCode(r.Diags, CodeInterprocLeak)) != 0 {
		t.Fatalf("false-positive V008:\n%s", r.String())
	}
}

// escThreads exercises the shared/thread-local split: Msg crosses a
// spawn boundary, Item escapes into a field but stays on its thread,
// and Box dies in its creating function.
const escThreads = `class Item {
public:
    Item(int x) {
        v = x;
    }
    ~Item() {
    }
    int v;
};

class Box {
public:
    Box() {
        it = null;
    }
    ~Box() {
        if (it != null) {
            delete it;
        }
    }
    void put(Item* p) {
        it = p;
    }
private:
    Item* it;
};

class Msg {
public:
    Msg(int x) {
        v = x;
    }
    ~Msg() {
    }
    int v;
};

void worker(int n) {
    Box* b = new Box();
    b->put(new Item(n));
    delete b;
}

void reader(Msg* m) {
    print(m->v);
    delete m;
}

int main() {
    Msg* m = new Msg(7);
    spawn worker(3);
    spawn reader(m);
    join;
    return 0;
}
`

func TestEscapeThreadLocalVsShared(t *testing.T) {
	r := mustEscape(t, escThreads)
	byClass := map[string]Site{}
	for _, s := range r.Sites {
		byClass[s.Class] = s
	}
	if len(r.Sites) != 3 {
		t.Fatalf("want 3 sites, got %d:\n%s", len(r.Sites), r.String())
	}
	if got := byClass["Msg"].Escape; got != EscShared {
		t.Errorf("Msg site: want shared, got %s", got)
	}
	if got := byClass["Item"].Escape; got != EscThread {
		t.Errorf("Item site: want thread-local, got %s (%s)", got, byClass["Item"].Reason)
	}
	if s := byClass["Box"]; !s.Promote {
		t.Errorf("Box site should be frame-promoted, got %s (%s)", s.Escape, s.Reason)
	}
	wantShared := []string{"Msg"}
	if strings.Join(r.Shared, ",") != strings.Join(wantShared, ",") {
		t.Errorf("shared classes: want %v, got %v", wantShared, r.Shared)
	}
	for _, cls := range []string{"Item", "Box"} {
		if !r.IsThreadLocal(cls) {
			t.Errorf("%s should be thread-local, report: %v / %v", cls, r.ThreadLocal, r.Shared)
		}
	}
	// A clean hand-off program must not trip the new diagnostics.
	res := checkSrc(t, escThreads)
	for _, code := range []string{CodeCrossThreadUAD, CodeInterprocLeak} {
		if len(diagsWithCode(res.Diags, code)) != 0 {
			t.Errorf("false-positive %s:\n%s", code, res.String())
		}
	}
}

// escBounds exercises lifetime bounds and pool pre-sizing: an escaping
// factory called from a counted loop.
const escBounds = `class P {
public:
    P(int x) {
        v = x;
    }
    ~P() {
    }
    int v;
};

P* make(int x) {
    return new P(x);
}

int main() {
    for (int i = 0; i < 20; i = i + 1) {
        P* p = make(i);
        print(p->v);
        delete p;
    }
    return 0;
}
`

func TestEscapeBoundsAndPresize(t *testing.T) {
	r := mustEscape(t, escBounds)
	if len(r.Sites) != 1 {
		t.Fatalf("want 1 site, got %d:\n%s", len(r.Sites), r.String())
	}
	s := r.Sites[0]
	if s.Escape != EscThread || s.Promote {
		t.Fatalf("returned allocation must be thread-local and unpromoted: %+v", s)
	}
	if s.Bound != 20 {
		t.Fatalf("want bound 20, got %d", s.Bound)
	}
	if len(r.Presize) != 1 || r.Presize[0].Class != "P" || r.Presize[0].Count != 20 {
		t.Fatalf("want pre-size hint P=20, got %+v", r.Presize)
	}
	// The caller consumes the fresh result: no V008.
	if len(diagsWithCode(r.Diags, CodeInterprocLeak)) != 0 {
		t.Fatalf("false-positive V008:\n%s", r.String())
	}
}

func TestEscapeUnboundedLoop(t *testing.T) {
	src := `class C {
public:
    C() {
        v = 0;
    }
    ~C() {
    }
    int v;
};

int main() {
    int i = 0;
    while (i < 10) {
        C* c = new C();
        delete c;
        i = i + 1;
    }
    return 0;
}
`
	r := mustEscape(t, src)
	if len(r.Sites) != 1 || r.Sites[0].Bound != Unbounded {
		t.Fatalf("while-loop site must be unbounded: %+v", r.Sites)
	}
	if !r.Sites[0].Promote {
		t.Fatalf("unbounded but non-escaping site is still promotable: %s", r.Sites[0].Reason)
	}
	if len(r.Presize) != 0 {
		t.Fatalf("no finite bound, no pre-size hint: %+v", r.Presize)
	}
}

// escLeak seeds V008: drop() discards a fresh allocation that only
// make() knows about.
const escLeak = `class Q {
public:
    Q() {
        v = 1;
    }
    ~Q() {
    }
    int v;
};

Q* make() {
    return new Q();
}

void drop() {
    make();
}

int main() {
    drop();
    Q* q = make();
    delete q;
    return 0;
}
`

func TestInterprocLeakV008(t *testing.T) {
	res := checkSrc(t, escLeak)
	leaks := diagsWithCode(res.Diags, CodeInterprocLeak)
	if len(leaks) != 1 {
		t.Fatalf("want exactly 1 V008, got %d:\n%s", len(leaks), res.String())
	}
	d := leaks[0]
	if d.Func != "drop" || d.Severity != Warning {
		t.Fatalf("V008 misattributed: %+v", d)
	}
	if !strings.Contains(d.Msg, "make") || !strings.Contains(d.Msg, "interprocedural leak") {
		t.Fatalf("V008 message should name the factory: %q", d.Msg)
	}
}

// crossThreadSrc builds the V007 reproducers: a pointer handed to a
// spawned thread around a delete, with and without a separating join.
func crossThreadSrc(body string) string {
	return `class C {
public:
    C() {
        v = 0;
    }
    ~C() {
    }
    int get() {
        return v;
    }
    int v;
};

void use(C* p) {
    print(p->get());
}

int main() {
` + body + `    return 0;
}
`
}

func TestCrossThreadUseAfterDeleteV007(t *testing.T) {
	cases := []struct {
		name string
		body string
		want int
	}{
		{"delete-then-spawn", "    C* c = new C();\n    delete c;\n    spawn use(c);\n    join;\n", 1},
		{"spawn-then-delete-no-join", "    C* c = new C();\n    spawn use(c);\n    delete c;\n    join;\n", 1},
		{"join-separates", "    C* c = new C();\n    spawn use(c);\n    join;\n    delete c;\n", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := checkSrc(t, crossThreadSrc(tc.body))
			got := diagsWithCode(res.Diags, CodeCrossThreadUAD)
			if len(got) != tc.want {
				t.Fatalf("want %d V007, got %d:\n%s", tc.want, len(got), res.String())
			}
			if tc.want == 1 && got[0].Severity != Error {
				t.Fatalf("V007 must be an error: %+v", got[0])
			}
		})
	}
}

func TestEscapeBlockedReasonsV009(t *testing.T) {
	src := `class C {
public:
    C() {
        v = 0;
    }
    ~C() {
    }
    int v;
};

void aliased() {
    C* a = new C();
    C* b = a;
    delete b;
}

void reassigned() {
    C* p = new C();
    p = null;
}

void undeleted() {
    C* p = new C();
    print(p->v);
}

int main() {
    aliased();
    reassigned();
    undeleted();
    return 0;
}
`
	r := mustEscape(t, src)
	if len(r.Sites) != 3 {
		t.Fatalf("want 3 sites, got %d:\n%s", len(r.Sites), r.String())
	}
	for _, s := range r.Sites {
		if s.Promote {
			t.Errorf("site in %s must not be promoted", s.Func)
		}
	}
	blocked := diagsWithCode(r.Diags, CodeEscapeBlocked)
	if len(blocked) != 3 {
		t.Fatalf("want 3 V009 reports, got %d:\n%s", len(blocked), r.String())
	}
	for _, d := range blocked {
		if d.Severity != Info {
			t.Errorf("V009 must be info-level: %+v", d)
		}
	}
	// V009 is advisory detail of the Escape report only; plain Check
	// must not surface it.
	res := checkSrc(t, src)
	if len(diagsWithCode(res.Diags, CodeEscapeBlocked)) != 0 {
		t.Errorf("Check must not emit V009:\n%s", res.String())
	}
}

func TestEscapeRecursionUnbounded(t *testing.T) {
	src := `class N {
public:
    N(int d) {
        v = d;
        kid = null;
        if (d > 0) {
            kid = new N(d - 1);
        }
    }
    ~N() {
        if (kid != null) {
            delete kid;
        }
    }
    int v;
private:
    N* kid;
};

int main() {
    N* root = new N(5);
    delete root;
    return 0;
}
`
	r := mustEscape(t, src)
	var ctorSite, rootSite *Site
	for i := range r.Sites {
		switch r.Sites[i].Func {
		case "N::N":
			ctorSite = &r.Sites[i]
		case "main":
			rootSite = &r.Sites[i]
		}
	}
	if ctorSite == nil || rootSite == nil {
		t.Fatalf("missing sites:\n%s", r.String())
	}
	if ctorSite.Bound != Unbounded {
		t.Errorf("recursive ctor site must be unbounded, got %d", ctorSite.Bound)
	}
	if ctorSite.Escape != EscThread {
		t.Errorf("field-stored site must be thread-local, got %s", ctorSite.Escape)
	}
	if !rootSite.Promote {
		t.Errorf("root site should promote, got %s (%s)", rootSite.Escape, rootSite.Reason)
	}
}

// TestEscapeJSONDeterministic locks the byte-stability requirement:
// repeated runs over the same program must serialize identically.
func TestEscapeJSONDeterministic(t *testing.T) {
	srcs := []string{escPromote, escThreads, escBounds, escLeak, sixDefects}
	for i, src := range srcs {
		var first []byte
		for run := 0; run < 5; run++ {
			r := mustEscape(t, src)
			b, err := r.JSON("prog.mcc")
			if err != nil {
				t.Fatalf("json: %v", err)
			}
			if run == 0 {
				first = b
				continue
			}
			if !bytes.Equal(first, b) {
				t.Fatalf("src %d: escape JSON differs between runs:\n--- run 0 ---\n%s\n--- run %d ---\n%s", i, first, run, b)
			}
		}
	}
}

// TestVetDiagOrderDeterministic locks the sorted diagnostic order the
// -vet-json artifact depends on: position first, then code, field and
// message.
func TestVetDiagOrderDeterministic(t *testing.T) {
	var first string
	for run := 0; run < 5; run++ {
		res := checkSrc(t, sixDefects)
		if !sort.SliceIsSorted(res.Diags, func(i, j int) bool {
			a, b := res.Diags[i], res.Diags[j]
			if a.Pos.Line != b.Pos.Line {
				return a.Pos.Line < b.Pos.Line
			}
			if a.Pos.Col != b.Pos.Col {
				return a.Pos.Col < b.Pos.Col
			}
			return a.Code <= b.Code
		}) {
			t.Fatalf("diags not in (line, col, code) order:\n%s", res.String())
		}
		b, err := res.JSON("prog.mcc")
		if err != nil {
			t.Fatalf("json: %v", err)
		}
		if run == 0 {
			first = string(b)
		} else if first != string(b) {
			t.Fatalf("vet JSON differs between runs")
		}
	}
}

func TestSortDiagsTieBreaks(t *testing.T) {
	at := func(line, col int) cc.Pos { return cc.Pos{Line: line, Col: col} }
	diags := []Diag{
		{Code: "V006", Pos: at(3, 5), Msg: "b"},
		{Code: "V001", Pos: at(3, 5), Msg: "a"},
		{Code: "V001", Pos: at(2, 9), Msg: "z"},
		{Code: "V001", Pos: at(3, 5), Field: "x", Msg: "a"},
		{Code: "V001", Pos: at(3, 5), Msg: "b"},
	}
	sortDiags(diags)
	got := make([]string, len(diags))
	for i, d := range diags {
		got[i] = fmt.Sprintf("%d:%d %s %s/%s", d.Pos.Line, d.Pos.Col, d.Code, d.Msg, d.Field)
	}
	want := []string{
		"2:9 V001 z/",
		"3:5 V001 a/",
		"3:5 V001 b/",
		"3:5 V001 a/x",
		"3:5 V006 b/",
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order[%d] = %q, want %q\nall: %v", i, got[i], want[i], got)
		}
	}
}

// TestFieldInductionVariableIsUnbounded: trip-field counts a loop with
// a field that the called reset() sets back to 0 twice, so the loop's
// `new B` runs 6 times (the program prints 12, 6 × B's 2) although the
// loop reads like four trips. A field is no induction variable: the
// site must not claim a finite bound below 6.
func TestFieldInductionVariableIsUnbounded(t *testing.T) {
	r := mustEscape(t, fuzzSeed(t, "trip-field"))
	for _, s := range r.Sites {
		if s.Func == "A::run" {
			if s.Bound != Unbounded && s.Bound < 6 {
				t.Fatalf("new B in A::run: bound %d, but it runs 6 times", s.Bound)
			}
			return
		}
	}
	t.Fatal("no site in A::run")
}

// births counts the objects the program allocates, per compiled
// "fn@line(Class)" site: every object is born once, at a direct
// allocation or from a pool, and buffers are not objects.
type births map[string]int64

func (b births) Event(e sim.Event) {
	if (e.Kind == sim.EvAlloc || e.Kind == sim.EvBirth) && e.Detail != "buffer" {
		b[e.Site]++
	}
}

// boundViolations runs src, unrewritten, on the VM and returns one line
// per site key whose births exceed the summed bounds vet.Escape gives
// that key's `new` sites, and the number of births checked. A key with
// an unbounded site, or with no `new` site (placement new falling back
// to the heap, a pool allocation inside an operator new), is not
// checked.
func boundViolations(t *testing.T, src string) ([]string, int64) {
	t.Helper()
	prog := analyzed(t, src)
	bound := map[string]int64{}
	for _, s := range Escape(prog).Sites {
		key := fmt.Sprintf("%s@%d(%s)", s.Func, s.Pos.Line, s.Class)
		bound[key] = addBound(bound[key], s.Bound)
	}
	p, err := vm.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	got := births{}
	// A trap ends the run early; the births before it still count.
	_, _ = vm.Run(p, vm.Config{MaxSteps: 5_000_000, Tracer: got})
	var out []string
	var checked int64
	for key, n := range got {
		b, ok := bound[key]
		if !ok || b == Unbounded {
			continue
		}
		checked += n
		if n > b {
			out = append(out, fmt.Sprintf("%s ran %d times, bound %d", key, n, b))
		}
	}
	return out, checked
}

// TestEscapeBoundsHold is the oracle of the allocation bounds that
// pre-size pools: no `new` site may allocate more objects in a run than
// its static bound. It runs the committed FuzzVet corpus, this file's
// programs, placement.mcc and generated programs, single-threaded and
// with three threads.
func TestEscapeBoundsHold(t *testing.T) {
	progs := map[string]string{
		"escPromote": escPromote, "escThreads": escThreads, "escBounds": escBounds, "escLeak": escLeak,
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzVet")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		progs["FuzzVet/"+e.Name()] = fuzzSeed(t, e.Name())
	}
	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", "programs", "placement.mcc"))
	if err != nil {
		t.Fatal(err)
	}
	progs["placement.mcc"] = string(raw)
	for seed := int64(1); seed <= 40; seed++ {
		progs[fmt.Sprintf("mccgen/%d", seed)] = mccgen.Generate(mccgen.Config{Seed: seed})
		progs[fmt.Sprintf("mccgen/%d/threads3", seed)] = mccgen.Generate(mccgen.Config{Seed: seed, Threads: 3})
	}
	var checked int64
	for name, src := range progs {
		bad, n := boundViolations(t, src)
		checked += n
		for _, v := range bad {
			t.Errorf("%s: %s", name, v)
		}
	}
	if checked == 0 {
		t.Fatal("no birth matched a bounded site")
	}
	t.Logf("%d programs, %d births checked against their bounds", len(progs), checked)
}
