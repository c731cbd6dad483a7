package vet

import (
	"strings"
	"testing"

	"amplify/internal/cc"
)

func analyzed(t *testing.T, src string) *cc.Program {
	t.Helper()
	prog := cc.MustParse(src)
	if err := cc.Analyze(prog); err != nil {
		t.Fatal(err)
	}
	return prog
}

func escapeJSON(t *testing.T, r *EscapeReport) string {
	t.Helper()
	b, err := r.JSON("memo")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCheckThenEscapeSharesOneAnalysis runs Check and then Escape on
// one tree, the second call reusing the first one's escape analysis,
// and requires the results each function returns on a tree of its own.
func TestCheckThenEscapeSharesOneAnalysis(t *testing.T) {
	for name, src := range map[string]string{
		"promote": escPromote, "threads": escThreads, "bounds": escBounds,
		"leak": escLeak, "sixDefects": sixDefects, "corner": cornerClass,
	} {
		prog := analyzed(t, src)
		res := Check(prog)
		prog.Memo(escapeKey{}, func() any {
			t.Fatalf("%s: Check left no escape analysis for Escape to reuse", name)
			return nil
		})
		rep := Escape(prog)
		if got, want := res.String(), Check(analyzed(t, src)).String(); got != want {
			t.Errorf("%s: Check on a shared tree:\n%s\nwant:\n%s", name, got, want)
		}
		if got, want := escapeJSON(t, rep), escapeJSON(t, Escape(analyzed(t, src))); got != want {
			t.Errorf("%s: Escape after Check on one tree:\n%s\nwant:\n%s", name, got, want)
		}
	}
}

// TestEscapeSeesTreeAfterReanalysis mutates an analyzed tree between
// two Escape calls: once cc.Analyze has run again, the second report
// must describe the mutated tree, not the memoized first analysis.
func TestEscapeSeesTreeAfterReanalysis(t *testing.T) {
	prog := analyzed(t, escPromote)
	if s := Escape(prog).Sites[0]; !s.Promote {
		t.Fatalf("site should be promoted before the mutation: %+v", s)
	}
	churn := prog.Funcs["churn"]
	var kept []cc.Stmt
	for _, s := range churn.Body.Stmts {
		if _, del := s.(*cc.DeleteStmt); !del {
			kept = append(kept, s)
		}
	}
	if len(kept) == len(churn.Body.Stmts) {
		t.Fatal("churn has no delete statement to drop")
	}
	churn.Body.Stmts = kept
	if err := cc.Analyze(prog); err != nil {
		t.Fatal(err)
	}
	if s := Escape(prog).Sites[0]; s.Promote || !strings.Contains(s.Reason, "no matching delete") {
		t.Fatalf("second report does not show the dropped delete: %+v", s)
	}
}
