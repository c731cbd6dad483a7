package vet

import (
	"testing"

	"amplify/internal/cc"
	"amplify/internal/mccgen"
)

// benchSrc is the front end's benchmark program (internal/cc): 49 KB of
// generated source, up to 64 classes of up to 12 fields.
var benchSrc = mccgen.Generate(mccgen.Config{Seed: 28, MaxClasses: 64, MaxFields: 12, Iterations: 2})

// ledgerSrc is the program of the tool-path rows of BENCH_host.json.
var ledgerSrc = mccgen.Generate(mccgen.Config{Seed: 5, MaxClasses: 64, MaxFields: 12, Iterations: 2})

// BenchmarkCheck measures vet.Check and vet.Escape on one analyzed
// tree, the pair the tool path runs: Check makes the escape analysis
// and Escape reuses it. Each run first takes the program's one memo
// slot under another key, which drops the previous run's escape
// analysis at the cost of a slot write, so every run builds it afresh.
// The loop must not stop and restart the timer: under Go 1.24, b.Loop
// measures the time since the last StartTimer, which never reaches the
// bench time, so the loop would not end.
func BenchmarkCheck(b *testing.B) {
	prog := cc.MustParse(benchSrc)
	if err := cc.Analyze(prog); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		prog.Memo(dropMemo{}, func() any { return nil })
		Check(prog)
		Escape(prog)
	}
}

// dropMemo is a program memo key no analysis uses.
type dropMemo struct{}

// TestCheckEscapeAllocBudget bounds the allocations of Check and Escape
// on one analyzed tree of the ledger program: dataflow states in
// slices indexed per body, not maps per program point, and escape
// tables reused across sweeps. The ceiling is the measured count plus
// 10%.
func TestCheckEscapeAllocBudget(t *testing.T) {
	const runs, budget = 3, 2740
	// Each run gets a tree no analysis has seen yet (AllocsPerRun
	// warms up with one extra run).
	trees := make([]*cc.Program, runs+1)
	for i := range trees {
		trees[i] = analyzed(t, ledgerSrc)
	}
	got := testing.AllocsPerRun(runs, func() {
		prog := trees[0]
		trees = trees[1:]
		Check(prog)
		Escape(prog)
	})
	if got > budget {
		t.Errorf("vet.Check+vet.Escape: %.0f allocs per run, budget %d", got, budget)
	}
}
