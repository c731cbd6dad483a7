package cc

import (
	"testing"

	"amplify/internal/mccgen"
)

// benchSrc is a 49,307-byte generated program (up to 64 classes of up
// to 12 fields), the size of the largest big-source programs. Every
// front-end benchmark runs on it, so ns/op compare across them.
var benchSrc = mccgen.Generate(mccgen.Config{Seed: 28, MaxClasses: 64, MaxFields: 12, Iterations: 2})

// ledgerSrc is the program of the tool-path rows of BENCH_host.json.
var ledgerSrc = mccgen.Generate(mccgen.Config{Seed: 5, MaxClasses: 64, MaxFields: 12, Iterations: 2})

// BenchmarkLex measures tokenizing benchSrc. tokens/op is a fixed work
// counter: a change in ns/op with tokens/op unchanged is slower work,
// not more work.
func BenchmarkLex(b *testing.B) {
	b.SetBytes(int64(len(benchSrc)))
	b.ReportAllocs()
	var n int
	for b.Loop() {
		toks, err := Lex(benchSrc)
		if err != nil {
			b.Fatal(err)
		}
		n = len(toks)
	}
	b.ReportMetric(float64(n), "tokens/op")
}

// BenchmarkParse measures lexing and parsing benchSrc into an AST.
func BenchmarkParse(b *testing.B) {
	b.SetBytes(int64(len(benchSrc)))
	b.ReportAllocs()
	var n int
	for b.Loop() {
		prog, err := Parse(benchSrc)
		if err != nil {
			b.Fatal(err)
		}
		n = len(prog.Decls)
	}
	b.ReportMetric(float64(n), "decls/op")
}

// BenchmarkPrint measures rendering the parsed benchSrc back to source;
// SetBytes counts the printed bytes.
func BenchmarkPrint(b *testing.B) {
	prog, err := Parse(benchSrc)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(Print(prog))))
	b.ReportAllocs()
	for b.Loop() {
		Print(prog)
	}
}

// BenchmarkAnalyze measures sema on the parsed benchSrc. Analyze
// rebuilds every table it fills, so each run re-analyzes one tree.
func BenchmarkAnalyze(b *testing.B) {
	prog := MustParse(benchSrc)
	b.ReportAllocs()
	for b.Loop() {
		if err := Analyze(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAnalyzeAllocBudget bounds sema's allocations on the ledger
// program: one flat scope stack per analysis, not a map per block.
// The ceiling is the measured count plus 10%.
func TestAnalyzeAllocBudget(t *testing.T) {
	const budget = 20
	prog := MustParse(ledgerSrc)
	got := testing.AllocsPerRun(5, func() {
		if err := Analyze(prog); err != nil {
			t.Fatal(err)
		}
	})
	if got > budget {
		t.Errorf("cc.Analyze: %.0f allocs per run, budget %d", got, budget)
	}
}
