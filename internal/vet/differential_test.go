package vet_test

import (
	"sort"
	"strings"
	"testing"

	"amplify/internal/cc"
	"amplify/internal/core"
	"amplify/internal/interp"
	"amplify/internal/mccgen"
	"amplify/internal/target"
	"amplify/internal/vet"
)

// sortedLines canonicalizes multi-threaded output (see the identical
// helper in internal/core's differential test).
func sortedLines(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// analyzed parses and analyzes src.
func analyzed(t *testing.T, src string) *cc.Program {
	t.Helper()
	prog := cc.MustParse(src)
	if err := cc.Analyze(prog); err != nil {
		t.Fatal(err)
	}
	return prog
}

// interpret runs src on the interpreter.
func interpret(t *testing.T, src string) target.Result {
	t.Helper()
	res, err := interp.Run(analyzed(t, src), target.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func hasCode(res *vet.Result, code string) bool {
	for _, d := range res.Diags {
		if d.Code == code {
			return true
		}
	}
	return false
}

// TestVetCleanProgramsPreserveBehavior ties the analyzer to the
// transform's correctness argument: a program with no error-severity
// findings must behave identically before and after the rewrite, in
// both shadow and flag modes. Divergence is only tolerated on programs
// the analyzer flagged with use-after-delete — the one defect class
// whose observable behavior logical deletion changes (it keeps the
// deleted object alive).
func TestVetCleanProgramsPreserveBehavior(t *testing.T) {
	modes := []struct {
		name string
		opt  core.Options
	}{
		{"shadow", core.Options{}},
		{"flag", core.Options{Mode: core.ModeFlag}},
	}
	for seed := int64(0); seed <= 40; seed++ {
		cfg := mccgen.Config{Seed: seed}
		if seed%3 == 0 {
			cfg.Threads = 3
		}
		src := mccgen.Generate(cfg)
		res := vet.Check(analyzed(t, src))
		plain := interpret(t, src)
		want := sortedLines(plain.Output)
		for _, m := range modes {
			out, _, err := core.Rewrite(src, m.opt)
			if err != nil {
				t.Fatalf("seed %d %s: rewrite failed: %v", seed, m.name, err)
			}
			got := interpret(t, out)
			diverged := sortedLines(got.Output) != want || got.ExitCode != plain.ExitCode
			if diverged && !hasCode(res, vet.CodeUseAfterDelete) {
				t.Fatalf("seed %d %s: behavior diverged on a program vet did not flag with V002\nvet:\n%splain:\n%s\ntransformed output:\n%s",
					seed, m.name, res.String(), plain.Output, got.Output)
			}
			if !res.HasErrors() && diverged {
				t.Fatalf("seed %d %s: vet-clean program diverged", seed, m.name)
			}
		}
	}
}

// divergingSrc uses a field after deleting it — the V002 defect. The
// original program observes whatever the allocator put into the freed
// block (the next allocation reuses it); the amplified program keeps
// the logically deleted object intact, so the same read returns the
// old value. The analyzer must flag exactly this program so the
// divergence is predicted, not discovered.
const divergingSrc = `class Child {
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

class Holder {
public:
    Holder() {
        c = new Child(7);
        d = null;
    }
    ~Holder() {
        delete d;
    }
    int poke() {
        delete c;
        d = new Child(9);
        return c->get();
    }
private:
    Child* c;
    Child* d;
};

int main() {
    Holder* h = new Holder();
    int r = h->poke();
    print(r);
    return 0;
}
`

// TestUseAfterDeleteDivergenceIsFlagged demonstrates the concrete
// divergence the differential test above guards against, and pins that
// vet predicts it.
func TestUseAfterDeleteDivergenceIsFlagged(t *testing.T) {
	res := vet.Check(analyzed(t, divergingSrc))
	if !hasCode(res, vet.CodeUseAfterDelete) {
		t.Fatalf("V002 not reported:\n%s", res.String())
	}
	excl := res.Ineligible()
	if len(excl) != 1 || excl[0].Class != "Holder" {
		t.Fatalf("exclusions = %+v, want Holder", excl)
	}

	plain := interpret(t, divergingSrc)
	out, _, err := core.Rewrite(divergingSrc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	amp, err := interp.Run(analyzed(t, out), target.Config{})
	if err != nil {
		// The usual outcome: logical deletion ran the destructor but
		// kept the memory, and the simulator's use-after-destroy check
		// traps the stale read that the original program got away with
		// (its freed block was recycled into a live Child).
		if !strings.Contains(err.Error(), "destroyed") {
			t.Fatalf("amplified run failed for an unexpected reason: %v", err)
		}
	} else if plain.Output == amp.Output {
		t.Fatalf("expected divergence on use-after-delete, both printed %q", plain.Output)
	}

	// Auto-exclusion restores the original behavior: with Holder left
	// un-amplified its delete stays physical.
	safe, _, err := core.Rewrite(divergingSrc, core.Options{
		AutoExclude: map[string]string{"Holder": "V002 use-after-delete"},
	})
	if err != nil {
		t.Fatal(err)
	}
	fixed := interpret(t, safe)
	if fixed.Output != plain.Output {
		t.Errorf("auto-excluded output = %q, want original %q", fixed.Output, plain.Output)
	}
}
