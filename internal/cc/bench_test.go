package cc

import (
	"testing"

	"amplify/internal/mccgen"
)

// benchSrc is a 49,307-byte generated program (up to 64 classes of up
// to 12 fields), the size of the largest big-source programs. Every
// front-end benchmark runs on it, so ns/op compare across the three.
var benchSrc = mccgen.Generate(mccgen.Config{Seed: 28, MaxClasses: 64, MaxFields: 12, Iterations: 2})

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
