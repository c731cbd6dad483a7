package vet

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// sixDefects contains exactly one instance of every defect class the
// analyzer knows. Line/column positions in TestGoldenSixDefects are
// tied to this source; keep the layout stable.
const sixDefects = `class Child {
public:
    Child(int v) {
        x = v;
    }
    ~Child() {
    }
    int get() {
        return x;
    }
private:
    int x;
};

class Bad {
public:
    Bad(int n) {
        if (n > 0) {
            kid = new Child(n);
        }
        spare = new Child(1);
        other = spare;
    }
    ~Bad() {
        delete kid;
        delete kid;
        delete spare;
    }
    int poke() {
        delete spare;
        return spare->get();
    }
    Child* steal() {
        return kid;
    }
    void drop() {
        Child* p = kid;
        delete p;
    }
private:
    Child* kid;
    Child* spare;
    Child* other;
};

class Leaky {
public:
    Leaky(int n) {
        buf = new char[n];
        buf = new char[n + 1];
    }
    ~Leaky() {
    }
private:
    char* buf;
};

void consume(Child* c) {
    delete c;
}

int main() {
    Bad* b = new Bad(3);
    int r = b->poke();
    Child* c = new Child(7);
    consume(c);
    print("done");
    return r;
}
`

func checkSrc(t *testing.T, src string) *Result {
	t.Helper()
	return Check(analyzed(t, src))
}

// TestGoldenSixDefects is the acceptance check from the issue: one
// program exhibiting all six defect classes must yield exactly the
// expected codes at the expected positions.
func TestGoldenSixDefects(t *testing.T) {
	res := checkSrc(t, sixDefects)
	var got []string
	for _, d := range res.Diags {
		got = append(got, fmt.Sprintf("%s %s %s %s", d.Pos, d.Code, d.Severity, d.Field))
	}
	want := []string{
		"22:15 V005 error other", // Bad::Bad: other = spare
		"26:9 V003 error kid",    // Bad::~Bad: second delete kid
		"31:16 V002 error spare", // Bad::poke: spare->get() after delete
		"34:9 V005 error kid",    // Bad::steal: return kid
		"38:9 V004 error kid",    // Bad::drop: delete p (alias of kid)
		"41:12 V001 error kid",   // field Child* kid: ctor path leaves unassigned
		"50:13 V006 warning buf", // Leaky::Leaky: overwrite while live
		"55:11 V006 warning buf", // field char* buf: allocated, never deleted
		"63:10 V006 warning b",   // main: local b leaks
	}
	if len(got) != len(want) {
		t.Fatalf("diagnostics:\n%swant %d, got %d", res.String(), len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("diag[%d] = %q, want %q\n%s", i, got[i], want[i], res.Diags[i].Msg)
		}
	}
	if !res.HasErrors() {
		t.Error("HasErrors() = false, want true")
	}
	if errs, warns := res.Counts(); errs != 6 || warns != 3 {
		t.Errorf("Counts() = %d errors, %d warnings; want 6, 3", errs, warns)
	}
}

// TestGoldenEligibility pins the auto-exclude verdict for the golden
// program: only Bad is condemned; Leaky's findings are warnings.
func TestGoldenEligibility(t *testing.T) {
	excl := checkSrc(t, sixDefects).Ineligible()
	if len(excl) != 1 {
		t.Fatalf("exclusions = %+v, want exactly one", excl)
	}
	if excl[0].Class != "Bad" {
		t.Errorf("excluded class = %s, want Bad", excl[0].Class)
	}
	wantReason := "V001 ctor-uninit, V002 use-after-delete, V003 double-delete, V004 alias-delete, V005 field-escape"
	if excl[0].Reason != wantReason {
		t.Errorf("reason = %q, want %q", excl[0].Reason, wantReason)
	}
}

func TestJSONOutput(t *testing.T) {
	res := checkSrc(t, sixDefects)
	raw, err := res.JSON("six.mcc")
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		File     string `json:"file"`
		Errors   int    `json:"errors"`
		Warnings int    `json:"warnings"`
		Diags    []struct {
			Code string `json:"code"`
			Line int    `json:"line"`
			Col  int    `json:"col"`
		} `json:"diags"`
		AutoExclude []Exclusion `json:"autoExclude"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, raw)
	}
	if out.File != "six.mcc" || out.Errors != 6 || out.Warnings != 3 {
		t.Errorf("header = %+v", out)
	}
	if len(out.Diags) != 9 {
		t.Errorf("diags = %d, want 9", len(out.Diags))
	}
	if len(out.AutoExclude) != 1 || out.AutoExclude[0].Class != "Bad" {
		t.Errorf("autoExclude = %+v", out.AutoExclude)
	}
}

// TestCleanProgram verifies a disciplined class produces no findings.
func TestCleanProgram(t *testing.T) {
	src := `class Node {
public:
    Node(int v) {
        val = v;
        next = null;
    }
    ~Node() {
        delete next;
    }
    int get() {
        return val;
    }
private:
    int val;
    Node* next;
};

int main() {
    Node* n = new Node(1);
    int r = n->get();
    delete n;
    return r;
}
`
	res := checkSrc(t, src)
	if len(res.Diags) != 0 {
		t.Fatalf("expected clean, got:\n%s", res.String())
	}
	if excl := mustElig(t, src); len(excl) != 0 {
		t.Fatalf("exclusions = %+v, want none", excl)
	}
}

func mustElig(t *testing.T, src string) []Exclusion {
	t.Helper()
	return checkSrc(t, src).Ineligible()
}

// TestCtorlessClass: pointer fields without any constructor are V001.
func TestCtorlessClass(t *testing.T) {
	src := `class Child {
public:
    Child() {
    }
    ~Child() {
    }
private:
    int x;
};

class Holder {
public:
    void set() {
        c = new Child();
    }
    ~Holder() {
        delete c;
    }
private:
    Child* c;
};

int main() {
    return 0;
}
`
	res := checkSrc(t, src)
	found := false
	for _, d := range res.Diags {
		if d.Code == CodeCtorUninit && d.Class == "Holder" && d.Field == "c" {
			found = true
			if !strings.Contains(d.Msg, "no constructor") {
				t.Errorf("msg = %q", d.Msg)
			}
		}
	}
	if !found {
		t.Fatalf("missing V001 for ctor-less Holder:\n%s", res.String())
	}
}

// TestLoopDoubleDelete: the defect is only visible through the loop's
// back edge — a straight-line reading never deletes twice.
func TestLoopDoubleDelete(t *testing.T) {
	src := `class Child {
public:
    Child() {
    }
    ~Child() {
    }
private:
    int x;
};

class Box {
public:
    Box() {
        c = new Child();
    }
    ~Box() {
        delete c;
    }
    void churn(int n) {
        int i = 0;
        while (i < n) {
            delete c;
            i = i + 1;
        }
    }
private:
    Child* c;
};

int main() {
    return 0;
}
`
	res := checkSrc(t, src)
	found := false
	for _, d := range res.Diags {
		if d.Code == CodeDoubleDelete && d.Field == "c" {
			found = true
		}
	}
	if !found {
		t.Fatalf("loop-carried double delete missed:\n%s", res.String())
	}
}

// TestDeleteThenReassignIsClean: logical deletion plus reuse is the
// exact pattern the transform emits; it must not be flagged.
func TestDeleteThenReassignIsClean(t *testing.T) {
	src := `class Child {
public:
    Child(int v) {
        x = v;
    }
    ~Child() {
    }
    int get() {
        return x;
    }
private:
    int x;
};

class Box {
public:
    Box() {
        c = new Child(1);
    }
    ~Box() {
        delete c;
    }
    int cycle() {
        delete c;
        c = new Child(2);
        return c->get();
    }
private:
    Child* c;
};

int main() {
    Box* b = new Box();
    int r = b->cycle();
    delete b;
    return r;
}
`
	res := checkSrc(t, src)
	if res.HasErrors() {
		t.Fatalf("expected no errors:\n%s", res.String())
	}
}

// TestAliasTombstone: a local that may alias either of two fields on
// different paths must not claim a single alias, but deleting through
// it is still an alias delete against at least one field.
func TestAliasTombstone(t *testing.T) {
	src := `class Child {
public:
    Child() {
    }
    ~Child() {
    }
private:
    int x;
};

class Two {
public:
    Two() {
        a = new Child();
        b = new Child();
    }
    ~Two() {
        delete a;
        delete b;
    }
    void pick(int n) {
        Child* p = a;
        if (n > 0) {
            p = b;
        }
        delete p;
    }
private:
    Child* a;
    Child* b;
};

int main() {
    return 0;
}
`
	res := checkSrc(t, src)
	// The merge tombstones the alias, so the delete is treated as a
	// plain local delete; the analysis must terminate and not crash,
	// and must not claim a specific field alias it cannot prove.
	for _, d := range res.Diags {
		if d.Code == CodeAliasDelete {
			t.Errorf("unexpected V004 after tombstone: %s", d)
		}
	}
}

// TestNullGuardedDelete: delete of a null-only pointer is a no-op and
// must not poison later use.
func TestNullGuardedDelete(t *testing.T) {
	src := `class Child {
public:
    Child() {
    }
    ~Child() {
    }
private:
    int x;
};

class Box {
public:
    Box() {
        c = null;
    }
    ~Box() {
        delete c;
    }
    void use() {
        c = null;
        delete c;
        delete c;
    }
private:
    Child* c;
};

int main() {
    return 0;
}
`
	res := checkSrc(t, src)
	for _, d := range res.Diags {
		if d.Code == CodeDoubleDelete {
			t.Errorf("delete of null-only field flagged: %s", d)
		}
	}
}

// TestIntrinsicCallsExempt: passing fields to runtime intrinsics (the
// pool hooks the transform itself emits) is not an escape.
func TestIntrinsicCallsExempt(t *testing.T) {
	src := `class Child {
public:
    Child() {
    }
    ~Child() {
    }
private:
    int x;
};

class Box {
public:
    Box() {
        c = new Child();
        buf = new char[8];
    }
    ~Box() {
        delete c;
        delete[] buf;
    }
    void grow(int n) {
        buf = realloc(buf, n);
    }
private:
    Child* c;
    char* buf;
};

int main() {
    return 0;
}
`
	res := checkSrc(t, src)
	for _, d := range res.Diags {
		if d.Code == CodeFieldEscape {
			t.Errorf("intrinsic call flagged as escape: %s", d)
		}
	}
}

// TestEscapeVariants covers the three V005 shapes individually.
func TestEscapeVariants(t *testing.T) {
	cases := []struct{ name, body string }{
		{"returned", "Child* take() { return c; }"},
		{"passed", "void give() { sink(c); }"},
		{"stored", "void put(Box* o) { o->c = c; }"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := `class Child {
public:
    Child() {
    }
    ~Child() {
    }
private:
    int x;
};

void sink(Child* p) {
}

class Box {
public:
    Box() {
        c = new Child();
    }
    ~Box() {
        delete c;
    }
    ` + tc.body + `
public:
    Child* c;
};

int main() {
    return 0;
}
`
			res := checkSrc(t, src)
			found := false
			for _, d := range res.Diags {
				if d.Code == CodeFieldEscape && d.Class == "Box" && d.Field == "c" {
					found = true
				}
			}
			if !found {
				t.Fatalf("V005 missed for %s:\n%s", tc.name, res.String())
			}
		})
	}
}
