package vet

import (
	"testing"
)

// These tests pin the CFG construction corner cases the dataflow
// depends on: unreachable tails after return, loop back edges that
// carry delete-then-reallocate states, and one-sided deletes across
// nested if/else merges.

const cornerClass = `class C {
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

`

func TestCFGUnreachableAfterReturn(t *testing.T) {
	// A clean allocate/use/delete followed by dead code: the tail must
	// neither crash the analysis nor contribute diagnostics reachable
	// code did not earn.
	src := cornerClass + `int f() {
    C* p = new C();
    int r = p->get();
    delete p;
    return r;
    print(99);
}

int main() {
    print(f());
    return 0;
}
`
	res := checkSrc(t, src)
	if len(res.Diags) != 0 {
		t.Fatalf("clean program with dead tail produced diags:\n%s", res.String())
	}
}

func TestCFGUnreachableDefectStillBuilds(t *testing.T) {
	// Defects placed beyond return sit in a predecessor-less block; the
	// analysis must stay well-defined on it (no panic, positions valid)
	// whatever it reports.
	src := cornerClass + `int f() {
    C* p = new C();
    delete p;
    return 0;
    delete p;
    print(p->get());
}

int main() {
    print(f());
    return 0;
}
`
	res := checkSrc(t, src)
	for _, d := range res.Diags {
		if d.Pos.Line < 1 || d.Pos.Col < 1 {
			t.Fatalf("diagnostic without position: %+v", d)
		}
	}
}

func TestCFGLoopBackEdgeDeleteReallocate(t *testing.T) {
	// The back edge merges the reallocated state into the loop head, so
	// the delete at the top of iteration i sees the allocation from
	// iteration i-1 — not a double delete, not a use-after-delete.
	src := cornerClass + `int main() {
    C* p = new C();
    for (int i = 0; i < 3; i = i + 1) {
        delete p;
        p = new C();
    }
    int r = p->get();
    delete p;
    return r;
}
`
	res := checkSrc(t, src)
	if len(res.Diags) != 0 {
		t.Fatalf("delete-then-reallocate loop is clean, got:\n%s", res.String())
	}
}

func TestCFGOneSidedDeleteMergesAsMayDeleted(t *testing.T) {
	// Nested if/else deleting on exactly one path: the merge holds
	// {deleted, allocated}, so a use after the merge is a (may)
	// use-after-delete.
	src := cornerClass + `int f(int c) {
    C* p = new C();
    if (c > 0) {
        if (c > 1) {
            delete p;
        } else {
            print(1);
        }
    } else {
        print(2);
    }
    return p->get();
}

int main() {
    print(f(2));
    return 0;
}
`
	res := checkSrc(t, src)
	if got := diagsWithCode(res.Diags, CodeUseAfterDelete); len(got) != 1 {
		t.Fatalf("want 1 V002 after one-sided delete merge, got %d:\n%s", len(got), res.String())
	}
}

func TestCFGBothBranchesDeleteIsClean(t *testing.T) {
	// The dual shape: every path deletes exactly once before the final
	// use-free return — no diagnostics.
	src := cornerClass + `int f(int c) {
    C* p = new C();
    int r = p->get();
    if (c > 0) {
        delete p;
    } else {
        delete p;
    }
    return r;
}

int main() {
    print(f(1));
    return 0;
}
`
	res := checkSrc(t, src)
	if len(res.Diags) != 0 {
		t.Fatalf("both-branch delete is clean, got:\n%s", res.String())
	}
}
