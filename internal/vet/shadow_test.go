package vet

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The programs below declare one name twice in one body, in nested or
// sibling scopes, and every analysis must keep the declarations apart,
// as sema's frame slots do. Each is a committed FuzzVet seed.

// fuzzSeed returns the program of the committed FuzzVet seed name.
func fuzzSeed(t *testing.T, name string) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzVet", name))
	if err != nil {
		t.Fatal(err)
	}
	_, quoted, _ := strings.Cut(strings.TrimSpace(string(raw)), "\nstring(")
	src, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return src
}

// TestFlowKeepsShadowedLocalsApart: shadow-flow deletes an inner p and
// then uses the outer one, which is still live (the program runs and
// prints 1), so it has no finding.
func TestFlowKeepsShadowedLocalsApart(t *testing.T) {
	if r := Check(analyzed(t, fuzzSeed(t, "shadow-flow"))); len(r.Diags) != 0 {
		t.Fatalf("want no findings, got:\n%s", r)
	}
}

// TestEscapeTypesSameNamedLocalsApart: shadow-spawn hands every B to a
// thread that deletes it, through a local named like an earlier,
// thread-local A. The spawned local's type is B*, so B is shared, and
// only B's site is handed to a thread.
func TestEscapeTypesSameNamedLocalsApart(t *testing.T) {
	r := mustEscape(t, fuzzSeed(t, "shadow-spawn"))
	if strings.Join(r.Shared, ",") != "B" || strings.Join(r.ThreadLocal, ",") != "A" {
		t.Fatalf("shared %v, thread-local %v; want B shared and A thread-local", r.Shared, r.ThreadLocal)
	}
	for _, s := range r.Sites {
		spawned := strings.Contains(s.Reason, "handed to a spawned thread")
		if spawned != (s.Class == "B") {
			t.Errorf("new %s site: %s, %q", s.Class, s.Escape, s.Reason)
		}
	}
}

// TestCallGraphTypesSameNamedLocalsApart: shadow-call calls B::fill
// through a local named like an earlier A*. The receiver is a B*, so
// main → B::fill is an edge and fill's site is bounded by its loop, 50.
func TestCallGraphTypesSameNamedLocalsApart(t *testing.T) {
	r := mustEscape(t, fuzzSeed(t, "shadow-call"))
	for _, s := range r.Sites {
		if s.Func == "B::fill" {
			if s.Bound != 50 {
				t.Fatalf("new A in B::fill: bound %d, want 50", s.Bound)
			}
			return
		}
	}
	t.Fatal("no site in B::fill")
}
